"""Checkpoint/resume benchmark of the durable-session layer.

Measures, per phantom grid size, what durability costs and what
recovery buys:

* per-scan persistence overhead — a durable session (write-ahead input
  journaling + atomic result commits) vs an in-memory session running
  the identical scans;
* checkpoint footprint (bytes on disk after the session);
* resume latency — reopening the checkpoint, rebuilding the
  preoperative model, restoring prototypes and the cache counters;
* the headline acceptance criterion: a scan processed right after
  ``resume()`` stays within ``WARM_RATIO_LIMIT`` (1.3x) of the same
  scan processed by the uninterrupted session — i.e. recovery does not
  lose the cross-scan fast path.

Results land in ``BENCH_recovery.json``. Runnable standalone:
``PYTHONPATH=src python benchmarks/test_recovery.py``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import time

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import IntraoperativePipeline
from repro.core.session import SurgicalSession
from repro.imaging.phantom import make_neurosurgery_case
from repro.persist import SessionStore, config_from_manifest

pytestmark = pytest.mark.bench

RESULT_PATH = pathlib.Path(__file__).with_name("BENCH_recovery.json")

SHAPES = ((28, 28, 20), (40, 40, 30))
#: Committed scans before the measured warm scan.
N_SCANS = 3
#: Resumed warm scan must stay within this factor of the uninterrupted one.
WARM_RATIO_LIMIT = 1.3


def bench_config(**overrides) -> PipelineConfig:
    defaults = dict(
        mesh_cell_mm=9.0,
        n_ranks=2,
        rigid_levels=1,
        rigid_max_iter=2,
        rigid_samples=2000,
        surface_iterations=60,
        prototypes_per_class=20,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def _cases(shape):
    return [
        make_neurosurgery_case(shape=shape, shift_mm=2.0 + 1.5 * i, seed=20 + i)
        for i in range(N_SCANS + 1)
    ]


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def run_recovery_benchmark(shape, workdir: pathlib.Path) -> dict:
    """Durable vs in-memory vs resumed timings for one grid size."""
    cases = _cases(shape)
    root = workdir / "ckpt"

    # Durable session: N_SCANS committed scans, then one warm scan.
    durable = IntraoperativePipeline(bench_config())
    prep_seconds, session = _timed(
        SurgicalSession.begin,
        durable,
        cases[0].preop_mri,
        cases[0].preop_labels,
        checkpoint_dir=root,
    )
    durable_scan_seconds = [
        _timed(session.process, case.intraop_mri)[0] for case in cases[:N_SCANS]
    ]
    checkpoint_bytes = session.store.total_bytes()

    # Freeze the checkpoint as of N_SCANS, then let the uninterrupted
    # session process the measured warm scan.
    frozen = workdir / "frozen"
    shutil.copytree(root, frozen)
    warm_uninterrupted_seconds = _timed(session.process, cases[N_SCANS].intraop_mri)[0]

    # In-memory baseline: identical scans, no persistence.
    memory = IntraoperativePipeline(bench_config())
    memory_session = SurgicalSession.begin(
        memory, cases[0].preop_mri, cases[0].preop_labels
    )
    memory_scan_seconds = [
        _timed(memory_session.process, case.intraop_mri)[0]
        for case in cases[:N_SCANS]
    ]

    # Crash-free stand-in for recovery: reopen the frozen checkpoint and
    # process the same warm scan the uninterrupted session just ran.
    store = SessionStore.open(frozen)
    config = config_from_manifest(store.manifest["config"], base=bench_config())
    resume_seconds, resumed = _timed(
        SurgicalSession.resume, IntraoperativePipeline(config), frozen
    )
    warm_resumed_seconds, result = _timed(
        resumed.process, cases[N_SCANS].intraop_mri
    )
    assert result.simulation.cache_hit

    durable_mean = sum(durable_scan_seconds) / len(durable_scan_seconds)
    memory_mean = sum(memory_scan_seconds) / len(memory_scan_seconds)
    return {
        "shape": list(shape),
        "n_nodes": int(session.preop.mesher.mesh.n_nodes),
        "n_scans": N_SCANS,
        "prepare_seconds": prep_seconds,
        "durable_scan_seconds": durable_scan_seconds,
        "memory_scan_seconds": memory_scan_seconds,
        "persist_overhead_seconds": durable_mean - memory_mean,
        "checkpoint_bytes": int(checkpoint_bytes),
        "resume_seconds": resume_seconds,
        "warm_uninterrupted_seconds": warm_uninterrupted_seconds,
        "warm_resumed_seconds": warm_resumed_seconds,
        "warm_ratio": warm_resumed_seconds / warm_uninterrupted_seconds,
    }


@pytest.mark.persistence
def test_recovery_benchmark(tmp_path):
    records = []
    for shape in SHAPES:
        workdir = tmp_path / ("x".join(map(str, shape)))
        workdir.mkdir()
        record = run_recovery_benchmark(shape, workdir)
        records.append(record)
        print(
            f"\n{record['shape']}: {record['n_nodes']} nodes | "
            f"persist overhead {record['persist_overhead_seconds']*1e3:+.0f} ms/scan | "
            f"checkpoint {record['checkpoint_bytes']/1e6:.2f} MB | "
            f"resume {record['resume_seconds']:.2f} s | "
            f"warm scan {record['warm_uninterrupted_seconds']:.2f} s -> "
            f"resumed {record['warm_resumed_seconds']:.2f} s "
            f"(ratio {record['warm_ratio']:.2f})"
        )
        assert record["checkpoint_bytes"] > 0
        assert record["warm_ratio"] <= WARM_RATIO_LIMIT, (
            f"resumed warm scan {record['warm_resumed_seconds']:.2f}s exceeds "
            f"{WARM_RATIO_LIMIT}x the uninterrupted "
            f"{record['warm_uninterrupted_seconds']:.2f}s"
        )
    RESULT_PATH.write_text(
        json.dumps({"benchmark": "recovery", "records": records}, indent=2) + "\n"
    )


if __name__ == "__main__":
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        test_recovery_benchmark(pathlib.Path(tmp))
    sys.exit(0)
