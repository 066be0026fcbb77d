"""Fault-injection drill: recovery overhead and rescue rate per fault class.

Runs the intraoperative pipeline through every fault class in
:mod:`repro.resilience.faults` — one 2-scan session per class, the fault
aimed at the second scan — plus the PR's acceptance scenario (a 3-scan
session whose middle scan is hit with solver stagnation *and* a killed
rank). Records, per class, the degradation level reached, the rungs of
the escalation ladder that were climbed, and the wall-clock overhead of
recovery relative to a clean session; asserts that every faulted scan is
rescued (full-FEM after escalation) or gracefully degraded, and that no
session aborts.

Results land in ``BENCH_resilience.json``. Runnable standalone:
``PYTHONPATH=src python benchmarks/test_resilience.py``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import IntraoperativePipeline
from repro.core.session import SurgicalSession
from repro.imaging.phantom import make_neurosurgery_case
from repro.persist import ScanSummary
from repro.resilience import DegradationLevel, FaultPlan

pytestmark = pytest.mark.bench

RESULT_PATH = pathlib.Path(__file__).with_name("BENCH_resilience.json")

#: One representative plan per fault class, aimed at scan index 1 (the
#: second scan, so the session's cross-scan state exists). The expected
#: level documents the deterministic outcome the assertions pin down.
FAULT_DRILLS = (
    ("scan-nan-light", "1:scan-nan=0.02", "full-fem"),
    ("scan-nan-heavy", "1:scan-nan=0.5", "previous-field"),
    ("scan-spike", "1:scan-spike=0.02", "full-fem"),
    ("scan-motion", "1:scan-motion=0.3", "full-fem"),
    ("kill-rank", "1:kill-rank=1", "full-fem"),
    ("stall-rank", "1:stall-rank=0", "full-fem"),
    ("stagnate-solver", "1:stagnate-solver", "coarse-fem"),
)


def drill_config(plan: FaultPlan | None = None) -> PipelineConfig:
    return PipelineConfig(
        mesh_cell_mm=9.0,
        n_ranks=2,
        rigid_levels=1,
        rigid_max_iter=2,
        rigid_samples=2000,
        surface_iterations=60,
        prototypes_per_class=20,
        fault_plan=plan,
    )


def run_drill(case, plan: FaultPlan | None, n_scans: int = 2) -> SurgicalSession:
    pipeline = IntraoperativePipeline(drill_config(plan))
    session = SurgicalSession.begin(pipeline, case.preop_mri, case.preop_labels)
    for _ in range(n_scans):
        session.process(case.intraop_mri)
    return session


def scan_record(scan: int, entry) -> dict:
    """One scan's drill record, from the full result or the session's summary."""
    summary = ScanSummary.of(scan, entry)
    report = summary.degradation
    return {
        "level": report.label,
        "rungs_tried": list(report.rungs_tried),
        "escalated": report.escalated,
        "cause": report.cause,
        "faults": list(report.faults),
        "recovery_seconds": report.wall_seconds,
        "scan_seconds": summary.record.seconds(),
        "cache_hit": summary.record.cache_hit,
    }


def run_resilience_benchmark(case) -> dict:
    clean = run_drill(case, None)
    clean_seconds = clean.history[1].timeline.total("intraoperative")

    classes = []
    for name, plan_text, expected in FAULT_DRILLS:
        session = run_drill(case, FaultPlan.parse(plan_text, seed=7))
        faulted = session.history[1]
        rec = scan_record(1, faulted)
        rec.update(
            {
                "class": name,
                "plan": plan_text,
                "expected_level": expected,
                "recovered": rec["level"] == "full-fem",
                "degraded": faulted.degradation.degraded,
                "aborted": False,
                "overhead_seconds": rec["scan_seconds"] - clean_seconds,
            }
        )
        classes.append(rec)

    # The PR's acceptance scenario: a 3-scan session, scan 2 (index 1)
    # hit with stagnation + a killed rank, scan 3 clean.
    plan = FaultPlan.parse("1:stagnate-solver;1:kill-rank=1", seed=7)
    session = run_drill(case, plan, n_scans=3)
    acceptance = {
        "plan": plan.describe(),
        "scans": [scan_record(i, r) for i, r in enumerate(session.history)],
        "zero_aborts": session.n_scans == 3,
        "summary_table": session.summary_table(),
    }

    rescued = sum(1 for c in classes if c["recovered"] or c["degraded"])
    return {
        "config": {
            "shape": [32, 32, 24],
            "mesh_cell_mm": 9.0,
            "n_ranks": 2,
            "clean_scan_seconds": clean_seconds,
        },
        "fault_classes": classes,
        "rescued_fraction": rescued / len(classes),
        "acceptance": acceptance,
    }


def check_acceptance(record: dict) -> None:
    """Assert the PR's acceptance criteria on a benchmark record."""
    # Every fault class either recovered at full-FEM or degraded
    # gracefully; none aborted the session.
    assert record["rescued_fraction"] == 1.0
    for c in record["fault_classes"]:
        assert not c["aborted"], c
        assert c["level"] == c["expected_level"], c

    scans = record["acceptance"]["scans"]
    assert record["acceptance"]["zero_aborts"]
    assert scans[0]["level"] == "full-fem"
    # The faulted scan degrades with a fully populated report...
    assert scans[1]["level"] == "coarse-fem"
    assert scans[1]["rungs_tried"][-1] == "direct"
    assert scans[1]["cause"] and scans[1]["faults"]
    # ...and the next clean scan returns to full-FEM on the cached context.
    assert scans[2]["level"] == "full-fem"
    assert scans[2]["cache_hit"]


@pytest.fixture(scope="module")
def drill_case():
    return make_neurosurgery_case(shape=(32, 32, 24), shift_mm=5.0, seed=42)


@pytest.mark.faults
def test_resilience_drill(drill_case):
    record = run_resilience_benchmark(drill_case)
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    check_acceptance(record)
    lines = [
        "Fault-injection drill (2-scan session per class, fault on scan 2)",
        f"  clean scan baseline: {record['config']['clean_scan_seconds']:.2f} s",
    ]
    for c in record["fault_classes"]:
        rungs = " -> ".join(c["rungs_tried"]) or "-"
        lines.append(
            f"  {c['class']:<18} level={c['level']:<14} rungs: {rungs}"
            f"  overhead {c['overhead_seconds']:+.2f} s"
        )
    lines.append(
        f"  rescued or degraded: {record['rescued_fraction']:.0%}, zero aborts"
    )
    print("\n" + "\n".join(lines))


def main() -> None:
    case = make_neurosurgery_case(shape=(32, 32, 24), shift_mm=5.0, seed=42)
    record = run_resilience_benchmark(case)
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    check_acceptance(record)
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
