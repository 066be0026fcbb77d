"""Chaos-soak benchmark: sharded serving under sustained injected faults.

A :class:`repro.serving.ShardGateway` fleet serves a multi-wave case
load while a :class:`repro.resilience.ServingFaultPlan` injects a worker
hang, a shard slowdown, a dropped result and a full shard kill. The
record lands in ``BENCH_soak.json``; the acceptance criteria asserted
here are the serving tier's robustness contract:

* **zero lost durable cases** — every admitted journaled case reaches a
  terminal status; nothing hangs, nothing vanishes;
* **every admitted case terminates** (durable or not);
* **all served cases are accounted** across completed / degraded /
  failed / evicted / drained;
* **shed before reject** — if any case was refused admission, the
  shedding ladder (coarse-FEM / previous-field / rigid-only) was
  already active;
* **the injected chaos actually fired** — at least one shard kill is in
  the fault log — and the SLO tracker still has per-stage latency
  percentiles (p50/p95/p99 vs. the paper's stage budgets) for the scans
  that were served;
* **the model caches turned over** (full sizing only) — more patients
  than a worker keeps models, so ``serving.preop_evictions`` > 0 with
  every audit above unchanged: eviction under shard-kill chaos is the
  case no unit test covers. The record carries the evictions next to
  the workers' summed peak RSS.

``REPRO_BENCH_SMOKE=1`` shrinks the fleet and the case count to a
CI-sized run over the same code path.

Runnable standalone: ``PYTHONPATH=src python benchmarks/test_soak.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile

import pytest

from repro.serving.soak import run_soak

RESULT_PATH = pathlib.Path(__file__).with_name("BENCH_soak.json")

pytestmark = pytest.mark.bench

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Full sizing: a two-shard fleet, every other case durable, and three
#: times as many patients as one worker keeps models
#: (``repro.serving.pool.PREOP_CACHE_MODELS`` = 4) — after the shard kill
#: the two surviving workers see all twelve, so their caches must evict.
FULL = dict(
    n_cases=24,
    n_shards=2,
    workers_per_shard=2,
    scans_per_case=1,
    shape=(32, 32, 24),
    mesh_cell_mm=6.0,
    n_patients=12,
    waves=3,
    queue_capacity=6,
    durable_every=2,
    seed=7,
)
#: Smoke sizing: same chaos schedule, minutes -> seconds.
SMOKE_PARAMS = dict(
    n_cases=8,
    n_shards=2,
    workers_per_shard=1,
    scans_per_case=1,
    shape=(24, 24, 16),
    mesh_cell_mm=8.0,
    n_patients=2,
    waves=2,
    queue_capacity=4,
    durable_every=2,
    seed=7,
)


def run_benchmark() -> dict:
    """Run the configured (full or smoke) soak; return the record."""
    params = SMOKE_PARAMS if SMOKE else FULL
    with tempfile.TemporaryDirectory(prefix="repro-soak-ckpt-") as root:
        report = run_soak(checkpoint_root=root, **params)
    record = report.as_dict()
    record["smoke"] = SMOKE
    return record


def check_acceptance(record: dict) -> None:
    """Assert the soak's robustness contract on a benchmark record."""
    assert record["lost_cases"] == [], (
        f"lost durable cases: {record['lost_cases']}"
    )
    assert record["unterminated_cases"] == [], (
        f"admitted cases without terminal status: {record['unterminated_cases']}"
    )
    admitted = int(record["counters"]["serving.admitted"])
    terminal = sum(record["statuses"].values())
    assert terminal == admitted, (record["statuses"], admitted)
    assert record["shed_before_reject"], record
    assert any("kill-shard" in f for f in record["faults_injected"]), (
        record["faults_injected"]
    )
    assert int(record["counters"]["serving.shard_deaths"]) >= 1
    # The latency record must carry percentile series for the paper's
    # SLO stages despite the chaos (scans were served, so stages ran).
    series = record["latency"]["series"]
    assert "scan total" in series, sorted(series)
    for stage in series.values():
        for key in ("p50", "p95", "p99"):
            assert key in stage
    if not record["smoke"]:
        assert int(record["counters"]["serving.preop_evictions"]) > 0, record
        assert record["workers_peak_rss_mb"] > 0


def test_soak(capsys):
    record = run_benchmark()
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    check_acceptance(record)
    counters = record["counters"]
    print(
        f"\nChaos soak ({'smoke' if SMOKE else 'full'}): "
        f"{record['n_cases']} cases, {record['n_shards']} shards, "
        f"{len(record['faults_injected'])} faults injected\n"
        f"  served {record['served']}/{int(counters['serving.admitted'])}"
        f" | shed {int(counters['serving.shed'])}"
        f" | rejected {int(counters['serving.rejected'])}"
        f" | shard deaths {int(counters['serving.shard_deaths'])}"
        f" | failovers {int(counters['serving.failover'])}"
        f" | lost durable: {len(record['lost_cases'])}"
        f" | models evicted {int(counters['serving.preop_evictions'])}"
        f" | workers' peak RSS {record['workers_peak_rss_mb']:.0f} MB\n"
        f"  {record['scans_total']} scans in {record['elapsed_seconds']:.1f} s"
        f" ({record['throughput_scans_per_s']:.3f} scans/s)"
    )


def main() -> None:
    record = run_benchmark()
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    check_acceptance(record)
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
