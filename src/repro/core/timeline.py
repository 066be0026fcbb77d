"""Pipeline stage timeline (the paper's Figure 6).

Records the ordered wall-clock cost of every image-processing action
before and during surgery, so the experiments can print the same
timeline the paper draws, and beside each stage the exact counts it
produced (band voxels, GMRES iterations, virtual seconds, ...).

The timeline is a thin consumer of :mod:`repro.obs`: every
:meth:`Timeline.stage` opens one tracer span (named after the stage) so
the flat Fig. 6 table and the hierarchical trace record the same
boundaries.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.trace import Tracer, get_tracer
from repro.util import Timer, format_table


@dataclass
class TimelineEntry:
    """One timed pipeline stage and the named counts it produced."""

    stage: str
    seconds: float
    period: str  # "preoperative" | "intraoperative"
    counts: dict = field(default_factory=dict)


def _format_counts(counts: dict) -> str:
    """``name=value`` pairs, floats to 4 significant digits."""
    return " ".join(
        f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in counts.items()
    )


@dataclass
class Timeline:
    """Ordered record of pipeline stage durations.

    Attributes
    ----------
    entries:
        Timed stages in execution order.
    notes:
        Events of the scan (budget warnings, injected faults, input
        hardening, resilience decisions), appended below the stage
        table. What a stage counted is on its entry.
    tracer:
        Tracer the stage spans are recorded on; ``None`` uses the
        ambient :func:`repro.obs.get_tracer` (a no-op by default).
    """

    entries: list[TimelineEntry] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    tracer: Tracer | None = field(default=None, repr=False, compare=False)

    def note(self, text: str) -> None:
        """Attach an event annotation to the timeline."""
        self.notes.append(text)

    @contextmanager
    def stage(self, name: str, period: str = "intraoperative"):
        """Time a stage and append it to the record.

        One tracer span wraps the stage, so nested instrumentation
        (FEM assembly, solver restarts) parents under it; the table
        entry and the span measure the same interval. Yields the
        entry's ``counts`` dict: the stage writes its named counts into
        it, and on exit they are stored on the entry and set on the span.
        """
        tracer = self.tracer if self.tracer is not None else get_tracer()
        timer = Timer(name)
        counts: dict = {}
        with tracer.span(name, kind="stage", period=period) as span:
            with timer:
                yield counts
            span.set(**counts)
        self.entries.append(TimelineEntry(name, timer.elapsed, period, counts))

    def add(self, name: str, seconds: float, period: str = "intraoperative") -> None:
        self.entries.append(TimelineEntry(name, seconds, period))

    def total(self, period: str | None = None) -> float:
        return sum(
            e.seconds for e in self.entries if period is None or e.period == period
        )

    def as_table(self, title: str | None = None) -> str:
        rows = [(e.period, e.stage, e.seconds, _format_counts(e.counts)) for e in self.entries]
        rows.append(("intraoperative", "TOTAL (intraoperative)", self.total("intraoperative"), ""))
        table = format_table(["period", "stage", "seconds", "counts"], rows, title=title)
        if self.notes:
            table += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return table

    def as_gantt(self, width: int = 50, title: str | None = None) -> str:
        """ASCII Gantt chart of sequential stages (the paper's Fig. 6 form).

        Each stage occupies a bar proportional to its duration, placed
        after the preceding stages — the paper draws exactly this
        "action vs time" staircase. Every bar stays inside the
        ``width``-column chart, so all rows are as wide as the header.
        """
        total = self.total()
        if total <= 0 or not self.entries:
            return "(empty timeline)"
        names = max(len("stage"), *(len(e.stage) for e in self.entries))
        walls = [f"{e.seconds:.2f}s" for e in self.entries]
        wall = max(len("wall"), *map(len, walls))
        axis = "0" + f"{total:.1f}s".rjust(width - 1)
        lines = [title] if title else []
        lines.append(f"{'stage':<{names}} | {axis} {'wall':>{wall}}")
        lines.append(f"{'-' * names}-+-{'-' * len(axis)}-{'-' * wall}")
        elapsed = 0.0
        for entry, text in zip(self.entries, walls):
            start = min(round(elapsed / total * width), width - 1)
            bar = "#" * min(max(1, round(entry.seconds / total * width)), width - start)
            row = f"{entry.stage:<{names}} | {' ' * start + bar:<{len(axis)}}"
            lines.append(f"{row} {text:>{wall}}")
            elapsed += entry.seconds
        return "\n".join(lines)
