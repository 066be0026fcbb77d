"""Real-time budget verdicts for the intraoperative pipeline.

The paper's claim is not "fast" but *fast enough*: the whole per-scan
analysis must fit inside the surgical pause while the scanner and the
surgeon wait, and the biomechanical solve specifically inside ~10 s
(Fig. 6's timeline, the "<10 s on 16 processors" headline).
:meth:`ScanVerdict.of` makes that constraint executable: it judges a
scan's ``(stage, seconds)`` pairs against the paper-derived per-stage
and per-scan budgets and returns the verdict, its warnings and its
headroom. It is a pure function of the stage durations, so a scan's
verdict is read from its :class:`~repro.persist.ScanRecord` (live,
restored or served) with :meth:`~repro.persist.ScanRecord.verdict`.

Across many scans the same durations answer the service-level question:
the serving gateway records every served scan's stage and scan seconds
in histograms, and :func:`slo_summary` reads p50/p95/p99 per stage back
out of the registry, scored against the same paper budgets.

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
from repro.util import format_table

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

    @classmethod
    def of(cls, pairs, scan: int) -> "ScanVerdict":
        """Judge a scan's ``(stage, seconds)`` pairs against the paper budgets.

        Each stage is checked against :data:`PAPER_STAGE_BUDGETS` (an
        unlisted stage only counts toward the total) and the running
        total against :data:`PAPER_SCAN_BUDGET`. A stage over its own
        budget warns; the stage whose running total first crosses the
        scan budget warns once more (the stages after it do not repeat
        it), also when that stage is itself over its own budget.
        """
        verdict = cls(scan_index=scan, total_seconds=0.0, scan_budget=PAPER_SCAN_BUDGET)
        for stage, seconds in pairs:
            check = StageCheck(stage, float(seconds), PAPER_STAGE_BUDGETS.get(stage))
            was_within = not verdict.scan_over
            verdict.checks.append(check)
            verdict.total_seconds += check.seconds
            if check.over:
                verdict.warnings.append(
                    f"stage {stage!r} exceeded its budget: "
                    f"{check.seconds:.2f} s > {check.budget:.2f} s"
                )
            if was_within and verdict.scan_over:
                verdict.warnings.append(
                    f"scan budget exhausted after {stage!r}: "
                    f"{verdict.total_seconds:.2f} s > {verdict.scan_budget:.2f} s"
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
