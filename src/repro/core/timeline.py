"""Pipeline stage timeline (the paper's Figure 6).

Records the ordered wall-clock cost of every image-processing action
before and during surgery, so the experiments can print the same
timeline the paper draws.

The timeline is a thin consumer of :mod:`repro.obs`: every
:meth:`Timeline.stage` opens one tracer span (named after the stage) so
the flat Fig. 6 table and the hierarchical trace record the same
boundaries, and registered *observers* (e.g. the real-time
:class:`repro.obs.BudgetMonitor`) see each entry the moment its stage
finishes rather than in a post-mortem.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.trace import Tracer, get_tracer
from repro.util import Timer, format_table


@dataclass
class TimelineEntry:
    """One timed pipeline stage."""

    stage: str
    seconds: float
    period: str  # "preoperative" | "intraoperative"


@dataclass
class Timeline:
    """Ordered record of pipeline stage durations.

    Attributes
    ----------
    entries:
        Timed stages in execution order.
    notes:
        Free-form annotations attached to the record (e.g. solve-context
        cache hit/miss information), appended below the stage table.
    tracer:
        Tracer the stage spans are recorded on; ``None`` uses the
        ambient :func:`repro.obs.get_tracer` (a no-op by default).
    observers:
        Callables invoked with each :class:`TimelineEntry` as soon as
        its stage completes (live budget accounting).
    """

    entries: list[TimelineEntry] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    tracer: Tracer | None = field(default=None, repr=False, compare=False)
    observers: list = field(default_factory=list, repr=False, compare=False)

    def note(self, text: str) -> None:
        """Attach a free-form annotation to the timeline."""
        self.notes.append(text)

    @contextmanager
    def stage(self, name: str, period: str = "intraoperative"):
        """Time a stage and append it to the record.

        One tracer span wraps the stage, so nested instrumentation
        (FEM assembly, solver restarts) parents under it; the table
        entry and the span measure the same interval. Yields the span so
        the stage can attach attributes to it.
        """
        tracer = self.tracer if self.tracer is not None else get_tracer()
        timer = Timer(name)
        with tracer.span(name, kind="stage", period=period) as span:
            with timer:
                yield span
        entry = TimelineEntry(name, timer.elapsed, period)
        self.entries.append(entry)
        for observer in self.observers:
            observer(entry)

    def add(self, name: str, seconds: float, period: str = "intraoperative") -> None:
        self.entries.append(TimelineEntry(name, seconds, period))

    def total(self, period: str | None = None) -> float:
        return sum(
            e.seconds for e in self.entries if period is None or e.period == period
        )

    def as_table(self, title: str | None = None) -> str:
        rows = [(e.period, e.stage, e.seconds) for e in self.entries]
        rows.append(("intraoperative", "TOTAL (intraoperative)", self.total("intraoperative")))
        table = format_table(["period", "stage", "seconds"], rows, title=title)
        if self.notes:
            table += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return table

    def as_gantt(self, width: int = 50, title: str | None = None) -> str:
        """ASCII Gantt chart of sequential stages (the paper's Fig. 6 form).

        Each stage occupies a bar proportional to its duration, placed
        after the preceding stages — the paper draws exactly this
        "action vs time" staircase.
        """
        total = self.total()
        if total <= 0 or not self.entries:
            return "(empty timeline)"
        name_width = max(len(e.stage) for e in self.entries)
        lines = []
        if title:
            lines.append(title)
        lines.append(f"{'stage'.ljust(name_width)} | 0{' ' * (width - 6)}{total:.1f}s")
        lines.append(f"{'-' * name_width}-+-{'-' * width}")
        elapsed = 0.0
        for entry in self.entries:
            start = int(round(elapsed / total * width))
            length = max(1, int(round(entry.seconds / total * width)))
            if start + length > width:
                length = width - start
            bar = " " * start + "#" * max(length, 1)
            lines.append(
                f"{entry.stage.ljust(name_width)} | {bar.ljust(width)} {entry.seconds:.2f}s"
            )
            elapsed += entry.seconds
        return "\n".join(lines)
