"""Real-time budget monitor for the intraoperative pipeline.

The paper's claim is not "fast" but *fast enough*: the whole per-scan
analysis must fit inside the surgical pause while the scanner and the
surgeon wait, and the biomechanical solve specifically inside ~10 s
(Fig. 6's timeline, the "<10 s on 16 processors" headline). A
:class:`BudgetMonitor` makes that constraint executable: give it a
per-stage and per-scan time budget, feed it stage durations as the scan
progresses, and it tracks live headroom, emits warning events the
moment a stage blows its allocation, and records a per-scan
:class:`ScanVerdict` for the session summary.

Across many scans the same durations answer the service-level question:
with a registry attached the monitor records every stage and scan in
histograms, and :func:`slo_summary` reads p50/p95/p99 per stage back
out of any registry (a server's holds its workers', merged), scored
against the same paper budgets. One store, one scorer.

Default budgets derive from the paper's reported numbers, with margin:

* ``biomechanical simulation`` — 10 s, the headline claim itself.
* ``visualization resample`` — 5 s (paper reports ~0.5 s; 10x margin).
* registration / classification / surface stages — 60 s each: the
  paper describes these as "a few minutes" of total intraoperative
  processing, so each stage gets a one-minute slice.
* scan total — 180 s, the "few minutes" window between acquisition and
  the surgeon seeing the updated navigation view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, get_tracer
from repro.util import ValidationError, format_table

#: Per-stage intraoperative budgets (seconds), paper-derived (see module
#: docstring). Stages absent from the mapping are unbudgeted.
PAPER_STAGE_BUDGETS: dict[str, float] = {
    "rigid registration": 60.0,
    "tissue classification": 60.0,
    "surface displacement": 60.0,
    "biomechanical simulation": 10.0,
    "visualization resample": 5.0,
}

#: Whole-scan intraoperative budget (seconds).
PAPER_SCAN_BUDGET: float = 180.0


@dataclass
class StageCheck:
    """Outcome of one stage against its budget."""

    stage: str
    seconds: float
    budget: float | None  # None: stage had no individual budget

    @property
    def over(self) -> bool:
        return self.budget is not None and self.seconds > self.budget


@dataclass
class ScanVerdict:
    """Budget verdict of one processed scan.

    ``within_budget`` requires both the scan total and every budgeted
    stage to come in under their allocations.
    """

    scan_index: int
    total_seconds: float
    scan_budget: float
    checks: list[StageCheck] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def over_stages(self) -> list[StageCheck]:
        return [c for c in self.checks if c.over]

    @property
    def scan_over(self) -> bool:
        return self.total_seconds > self.scan_budget

    @property
    def within_budget(self) -> bool:
        return not self.scan_over and not self.over_stages

    @property
    def headroom_seconds(self) -> float:
        """Remaining scan budget (negative when blown)."""
        return self.scan_budget - self.total_seconds

    @property
    def label(self) -> str:
        """Compact verdict for summary tables: ``ok`` or ``OVER(...)``."""
        if self.within_budget:
            return "ok"
        parts = [c.stage for c in self.over_stages]
        if self.scan_over:
            parts.append("scan total")
        return "OVER(" + ", ".join(parts) + ")"


class BudgetMonitor:
    """Tracks per-stage and per-scan time budgets across a session.

    Parameters
    ----------
    stage_budgets:
        Stage name -> allowed seconds; defaults to the paper-derived
        :data:`PAPER_STAGE_BUDGETS`. Unlisted stages only count toward
        the scan total.
    scan_budget:
        Allowed seconds for one complete scan's processing.
    tracer:
        Warning events are recorded on this tracer (``budget.warning``
        spans/events); defaults to the ambient tracer.
    metrics:
        Optional registry: over-budget stages and scans increment
        ``budget.stage_overruns`` / ``budget.scan_overruns``; every
        stage and sealed scan duration lands in the
        ``budget.stage_seconds[stage=...]`` / ``budget.scan_seconds``
        histograms.

    Usage is one ``begin_scan`` per scan, ``observe_stage`` after each
    stage, ``finish_scan`` to seal the verdict::

        monitor = BudgetMonitor()
        monitor.begin_scan(0)
        monitor.observe_stage("rigid registration", 12.0)
        verdict = monitor.finish_scan()
    """

    def __init__(
        self,
        stage_budgets: dict[str, float] | None = None,
        scan_budget: float = PAPER_SCAN_BUDGET,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if scan_budget <= 0:
            raise ValidationError(f"scan_budget must be > 0, got {scan_budget}")
        self.stage_budgets = dict(
            PAPER_STAGE_BUDGETS if stage_budgets is None else stage_budgets
        )
        for stage, budget in self.stage_budgets.items():
            if budget <= 0:
                raise ValidationError(
                    f"stage budget for {stage!r} must be > 0, got {budget}"
                )
        self.scan_budget = float(scan_budget)
        self._tracer = tracer
        self.metrics = metrics
        self.verdicts: list[ScanVerdict] = []
        self._current: ScanVerdict | None = None

    def _trace(self) -> Tracer:
        return self._tracer if self._tracer is not None else get_tracer()

    # -- per-scan lifecycle -------------------------------------------------

    def begin_scan(self, scan_index: int | None = None) -> None:
        """Open accounting for a new scan (auto-sealing any open one)."""
        if self._current is not None:
            self.finish_scan()
        index = len(self.verdicts) if scan_index is None else int(scan_index)
        self._current = ScanVerdict(
            scan_index=index, total_seconds=0.0, scan_budget=self.scan_budget
        )

    def observe_stage(self, stage: str, seconds: float) -> str | None:
        """Account one finished stage; returns the warning text if any.

        Emits a ``budget.warning`` trace event and increments the
        overrun metrics the moment a stage exceeds its allocation or
        the running total first crosses the scan budget (once per scan:
        the stages after the crossing do not repeat it), so downstream
        consumers see the problem *during* the scan, not in the
        post-mortem. With a registry attached the duration also lands
        in the ``budget.stage_seconds[stage=<name>]`` histogram, the
        series :func:`slo_summary` reads.
        """
        if self._current is None:
            self.begin_scan()
        current = self._current
        budget = self.stage_budgets.get(stage)
        check = StageCheck(stage=stage, seconds=float(seconds), budget=budget)
        current.checks.append(check)
        was_within = current.total_seconds <= self.scan_budget
        current.total_seconds += check.seconds
        if self.metrics is not None:
            self.metrics.histogram(f"budget.stage_seconds[stage={stage}]").observe(
                check.seconds
            )

        warning = None
        if check.over:
            warning = (
                f"stage {stage!r} exceeded its budget: "
                f"{check.seconds:.2f} s > {budget:.2f} s"
            )
        elif was_within and current.total_seconds > self.scan_budget:
            warning = (
                f"scan budget exhausted after {stage!r}: "
                f"{current.total_seconds:.2f} s > {self.scan_budget:.2f} s"
            )
        if warning is not None:
            current.warnings.append(warning)
            self._trace().event(
                "budget.warning",
                stage=stage,
                seconds=check.seconds,
                budget=budget if budget is not None else self.scan_budget,
                scan=current.scan_index,
            )
            if self.metrics is not None:
                kind = "stage" if check.over else "scan"
                self.metrics.counter(f"budget.{kind}_overruns").inc()
        return warning

    def headroom(self) -> float:
        """Live remaining seconds in the current scan's budget."""
        if self._current is None:
            return self.scan_budget
        return self.scan_budget - self._current.total_seconds

    def finish_scan(self) -> ScanVerdict:
        """Seal and return the current scan's verdict."""
        if self._current is None:
            raise ValidationError("no scan in progress (call begin_scan first)")
        verdict = self._current
        self._current = None
        self.verdicts.append(verdict)
        if self.metrics is not None:
            self.metrics.counter("budget.scans").inc()
            if not verdict.within_budget:
                self.metrics.counter("budget.scans_over").inc()
            self.metrics.histogram("budget.scan_seconds").observe(
                verdict.total_seconds
            )
        return verdict


# -- the SLO view --------------------------------------------------------------

#: Series name for whole-scan (end-to-end) latency.
SCAN_TOTAL = "scan total"

_STAGE_PREFIX = "budget.stage_seconds[stage="

#: Series read from fixed histograms, with their targets (None: tracked,
#: never scored — the serving layer's own latencies have no paper budget).
_FIXED_SERIES = {
    SCAN_TOTAL: ("budget.scan_seconds", PAPER_SCAN_BUDGET),
    "queue wait": ("serving.queue_wait_seconds", None),
    "case service": ("serving.case_seconds", None),
}


def slo_summary(metrics: MetricsRegistry) -> dict:
    """Latency percentiles per stage scored against the paper budgets.

    A pure view of a :class:`~repro.obs.MetricsRegistry` (a server's
    merged registry, or a ``metrics.json`` snapshot merged back into
    one): every ``budget.stage_seconds[stage=...]`` histogram is a
    series under its stage name with its :data:`PAPER_STAGE_BUDGETS`
    target, ``"scan total"`` reads ``budget.scan_seconds`` against
    :data:`PAPER_SCAN_BUDGET`, and ``"queue wait"`` / ``"case service"``
    read the serving histograms unscored. A series is ``met`` when its
    p95 is within target ("95 % of scans fit the budget", the standard
    SLO reading of the paper's hard-real-time claim); ``violations``
    counts samples above it. JSON-serializable;
    :func:`render_slo_summary` prints it.
    """
    sources = dict(_FIXED_SERIES)
    for name in metrics.names():
        if name.startswith(_STAGE_PREFIX):
            stage = name[len(_STAGE_PREFIX) : -1]
            sources[stage] = (name, PAPER_STAGE_BUDGETS.get(stage))
    series = {}
    for label in sorted(sources):
        name, target = sources[label]
        hist = metrics.get(name)
        if hist is None or not hist.count:
            continue
        p95 = hist.quantile(0.95)
        series[label] = {
            "count": hist.count,
            "p50": hist.quantile(0.5),
            "p95": p95,
            "p99": hist.quantile(0.99),
            "max": hist.max,
            "target": target,
            "violations": (
                0 if target is None else sum(v > target for v in hist.values)
            ),
            "met": target is None or p95 <= target,
        }
    return {
        "series": series,
        "total_violations": sum(s["violations"] for s in series.values()),
        "all_met": all(s["met"] for s in series.values()),
    }


def render_slo_summary(summary: dict) -> str:
    """Render a :func:`slo_summary` dict (live or loaded from JSON)."""
    if not summary.get("series"):
        return "(no SLO samples recorded)"
    rows = []
    for name, s in summary["series"].items():
        rows.append(
            [
                name,
                s["count"],
                f"{s['p50']:.3f}",
                f"{s['p95']:.3f}",
                f"{s['p99']:.3f}",
                "-" if s["target"] is None else f"{s['target']:.1f}",
                s["violations"],
                ("ok" if s["met"] else "MISSED") if s["target"] is not None else "-",
            ]
        )
    table = format_table(
        ["stage", "n", "p50 (s)", "p95 (s)", "p99 (s)", "target (s)", "viol", "SLO@p95"],
        rows,
        title="Latency SLOs vs paper budgets",
    )
    table += (
        f"\n  violations: {summary['total_violations']}"
        f" | all SLOs met: {summary['all_met']}"
    )
    return table
