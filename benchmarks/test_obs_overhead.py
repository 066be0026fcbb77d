"""Observability overhead benchmark: traced vs untraced 3-scan session.

Instrumentation only earns its keep if the *disabled* path is free: the
tracer hooks sit inside GMRES, the FEM assembly, and every pipeline
stage, so an untraced clinical run must not pay for them. This
benchmark measures both directions and records them in
``BENCH_obs.json``:

* ``noop`` — the disabled-tracer wrapper cost on a representative
  Krylov solve, against a baseline that bypasses the instrumentation
  entirely (calling the private ``_gmres`` with the shared
  ``NULL_SPAN``). Acceptance: < 5% overhead.
* ``session`` — wall-clock of an end-to-end 3-scan surgical session
  untraced (default ambient disabled tracer) vs fully traced
  (hierarchical spans + metrics + budget monitor), with the number of
  spans recorded per traced scan.
* ``serving`` — the same multi-case workload through the serving tier
  with telemetry off (dark requests, no tracer/SLO/flight) vs on (trace
  contexts, frame shipping, span grafting, per-scan flight spooling).
  Acceptance: < 5% serving overhead, bit-identical fields, and a frame
  home from every case. ``REPRO_BENCH_SMOKE=1`` shrinks the workload
  and skips the overhead bar (tiny runs are all multiprocessing noise)
  while still checking the correctness half.

Runnable standalone: ``PYTHONPATH=src python benchmarks/test_obs_overhead.py``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np
from scipy import sparse

from repro.core.config import PipelineConfig
from repro.core.pipeline import IntraoperativePipeline
from repro.core.session import SurgicalSession
from repro.imaging.phantom import make_neurosurgery_case
from repro.obs.budget import BudgetMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, Tracer
from repro.solver.gmres import _gmres, gmres

import pytest

pytestmark = pytest.mark.bench

RESULT_PATH = pathlib.Path(__file__).with_name("BENCH_obs.json")

#: Acceptance bound on the disabled-tracer overhead of a solve.
NOOP_OVERHEAD_LIMIT = 0.05

#: Acceptance bound on the serving tier's telemetry-on overhead.
SERVING_OVERHEAD_LIMIT = 0.05

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

SESSION_SHAPE = (32, 32, 24)
SESSION_CONFIG = dict(
    mesh_cell_mm=8.0, rigid_max_iter=1, rigid_samples=2000, surface_iterations=80
)
SCAN_SHIFTS = (3.0, 4.0, 5.0)

#: Full serving sizing: enough solve work per case that the wall clock
#: measures serving, and telemetry cost shows up as a fraction of it.
SERVING_FULL = dict(
    n_cases=4, n_workers=2, scans_per_case=2, shape=(32, 32, 24), mesh_cell_mm=6.0
)
#: Smoke sizing: same code path, CI-sized.
SERVING_SMOKE = dict(
    n_cases=2, n_workers=2, scans_per_case=1, shape=(24, 24, 16), mesh_cell_mm=8.0
)


def _bench_solve_inputs(n: int = 600, seed: int = 0):
    rng = np.random.default_rng(seed)
    A = sparse.random(n, n, density=0.02, random_state=np.random.RandomState(seed))
    A = (A + A.T + sparse.eye(n) * (n / 2.0)).tocsr()
    return A, rng.normal(size=n)


def _best_of(fn, reps: int) -> float:
    """Minimum wall-clock over ``reps`` runs (noise-robust)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_noop_overhead(reps: int = 7) -> dict:
    """Disabled-tracer wrapper cost on a representative GMRES solve."""
    A, b = _bench_solve_inputs()
    baseline = _best_of(
        lambda: _gmres(A, b, None, None, 1e-8, 30, 2000, False, NULL_SPAN), reps
    )
    # Public entry point: ambient tracer lookup + enabled check per call.
    wrapped = _best_of(lambda: gmres(A, b, tol=1e-8), reps)
    return {
        "baseline_seconds": baseline,
        "disabled_tracer_seconds": wrapped,
        "overhead_fraction": (wrapped - baseline) / baseline,
        "reps": reps,
    }


def _run_session(tracer: Tracer | None) -> dict:
    cases = [
        make_neurosurgery_case(shape=SESSION_SHAPE, shift_mm=s, seed=80 + i)
        for i, s in enumerate(SCAN_SHIFTS)
    ]
    if tracer is None:
        pipeline = IntraoperativePipeline(PipelineConfig(**SESSION_CONFIG))
    else:
        pipeline = IntraoperativePipeline(
            PipelineConfig(**SESSION_CONFIG),
            tracer=tracer,
            budget=BudgetMonitor(tracer=tracer),
            metrics=MetricsRegistry(),
        )
    t0 = time.perf_counter()
    session = SurgicalSession.begin(pipeline, cases[0].preop_mri, cases[0].preop_labels)
    for case in cases:
        session.process(case.intraop_mri)
    seconds = time.perf_counter() - t0
    return {
        "seconds": seconds,
        "n_scans": session.n_scans,
        "n_spans": len(tracer.finished()) if tracer is not None else 0,
    }


def measure_serving_telemetry_overhead() -> dict:
    """Same serving workload, telemetry off vs on, through real workers."""
    from repro.serving.soak import make_soak_requests, run_pool

    params = SERVING_SMOKE if SMOKE else SERVING_FULL

    def requests():
        # Fresh requests per run: dispatch stamps trace contexts on them.
        # One patient, so every case after the first hits the preop cache.
        return make_soak_requests(
            params["n_cases"],
            params["scans_per_case"],
            params["shape"],
            params["mesh_cell_mm"],
            1,
            7,
        )

    dark_seconds, dark_checksums, _ = run_pool(
        requests(), params["n_workers"], telemetry=False
    )
    metrics = MetricsRegistry()
    lit_seconds, lit_checksums, _ = run_pool(
        requests(), params["n_workers"], metrics=metrics, telemetry=True
    )
    return {
        "telemetry_off_seconds": dark_seconds,
        "telemetry_on_seconds": lit_seconds,
        "overhead_fraction": (lit_seconds - dark_seconds) / dark_seconds,
        "bit_identical": dark_checksums == lit_checksums,
        "frames": metrics.value("telemetry.frames"),
        "frames_lost": metrics.value("telemetry.frames_lost"),
        "spans_grafted": metrics.value("telemetry.spans_grafted"),
        "n_cases": params["n_cases"],
        "n_workers": params["n_workers"],
        "scans_per_case": params["scans_per_case"],
        "shape": list(params["shape"]),
        "smoke": SMOKE,
    }


def run_obs_benchmark() -> dict:
    noop = measure_noop_overhead()
    untraced = _run_session(None)
    traced = _run_session(Tracer())
    session = {
        "untraced_seconds": untraced["seconds"],
        "traced_seconds": traced["seconds"],
        "traced_minus_untraced_fraction": (
            (traced["seconds"] - untraced["seconds"]) / untraced["seconds"]
        ),
        "n_scans": traced["n_scans"],
        "spans_recorded": traced["n_spans"],
        "shape": list(SESSION_SHAPE),
    }
    return {
        "noop": noop,
        "session": session,
        "serving": measure_serving_telemetry_overhead(),
    }


def check_acceptance(record: dict) -> None:
    noop = record["noop"]
    assert noop["overhead_fraction"] < NOOP_OVERHEAD_LIMIT, noop
    session = record["session"]
    assert session["n_scans"] == 3
    # A traced session must actually record the hierarchy it pays for.
    assert session["spans_recorded"] > 3 * session["n_scans"]
    serving = record["serving"]
    # Telemetry must be numerically invisible and actually ship frames.
    assert serving["bit_identical"], serving
    assert serving["frames"] == serving["n_cases"], serving
    assert serving["frames_lost"] == 0, serving
    assert serving["spans_grafted"] > 0, serving
    if not serving["smoke"]:
        assert serving["overhead_fraction"] < SERVING_OVERHEAD_LIMIT, serving


def test_obs_overhead():
    record = run_obs_benchmark()
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    check_acceptance(record)
    noop, session = record["noop"], record["session"]
    serving = record["serving"]
    print(
        "\nObservability overhead"
        f"\n  disabled tracer on a solve: {noop['overhead_fraction']:+.2%}"
        f" (baseline {noop['baseline_seconds'] * 1e3:.2f} ms)"
        f"\n  3-scan session: untraced {session['untraced_seconds']:.2f} s"
        f" / traced {session['traced_seconds']:.2f} s"
        f" ({session['traced_minus_untraced_fraction']:+.2%},"
        f" {session['spans_recorded']} spans)"
        f"\n  serving ({'smoke' if serving['smoke'] else 'full'}):"
        f" telemetry off {serving['telemetry_off_seconds']:.2f} s"
        f" / on {serving['telemetry_on_seconds']:.2f} s"
        f" ({serving['overhead_fraction']:+.2%},"
        f" {serving['frames']:.0f} frames,"
        f" {serving['spans_grafted']:.0f} spans grafted)"
    )


def main() -> None:
    record = run_obs_benchmark()
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    check_acceptance(record)
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
