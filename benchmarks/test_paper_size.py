"""The paper-size record: Fig. 6's model build and two scans, as counts.

:func:`repro.experiments.fig6.measure_paper_size` builds the 77 k-equation
patient model on 16 ranks and runs two scans of it; this benchmark writes
what that run counted to ``BENCH_paper_size.json`` under one header
(commit, backend, ``nproc``, BLAS threads, smoke or full size):

* the system: equations and free equations, the block FSAI's ``G``
  nonzeros (``g_nnz``) and the coarse space's dimension (``coarse_dim``);
* per scan: the CG iterations and the virtual FEM split (initialization,
  assembly and solve seconds on the paper's machine), beside the scan's
  wall seconds.

``benchdiff`` gates the counts exactly (any change fails until the
baseline is re-recorded) and the virtual solve seconds in its band; wall
seconds are recorded, not gated. ``REPRO_BENCH_SMOKE=1`` runs a
48x48x36 phantom with about 12 k equations on the same 16 ranks (the CI
``bench-regression`` record).

Runnable standalone, printing Fig. 6's table too:
``PYTHONPATH=src python benchmarks/test_paper_size.py``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.backend import get_backend
from repro.experiments.fig6 import (
    PaperSizeRun,
    _blas_threads,
    _commit,
    format_paper_size,
    measure_paper_size,
)
from repro.solver import DEFAULT_SOLVER_TOL

from bench_io import update_bench_record

pytestmark = pytest.mark.bench

RESULT_PATH = pathlib.Path(__file__).with_name("BENCH_paper_size.json")
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
#: The smoke run's phantom and mesh size (``system77``'s smoke size).
SMOKE_SIZE = dict(shape=(48, 48, 36), target_nodes=4000)


def paper_size_record(run: PaperSizeRun, smoke: bool) -> dict:
    """The record of one run: the header, the system's counts, each scan's."""
    sim = run.scans[0][1].counts("biomechanical simulation")
    return {
        "commit": _commit(),
        "backend": get_backend().name,
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "smoke": smoke,
        "build_s": run.build_s,
        "system": {
            "smoke": smoke,
            "shape": list(run.shape),
            "n_ranks": run.n_ranks,
            "equations": int(sim["equations"]),
            "free_equations": int(sim["free_equations"]),
            "g_nnz": int(run.build_attr("preconditioner setup", "g_nnz")),
            "coarse_dim": int(run.build_attr("coarse space setup", "coarse_dim")),
        },
        "scans": [
            {
                "smoke": smoke,
                "shift_mm": shift_mm,
                "iterations": int(counts["iterations"]),
                "rel_residual": float(counts["rel_residual"]),
                "virtual_init_s": float(counts["virtual_init_s"]),
                "virtual_assembly_s": float(counts["virtual_assembly_s"]),
                "virtual_solve_s": float(counts["virtual_solve_s"]),
                "fem_wall_s": next(
                    s for stage, s, _, _ in record.timeline if stage == "biomechanical simulation"
                ),
                "wall_s": wall,
            }
            for shift_mm, record, wall in run.scans
            for counts in [record.counts("biomechanical simulation")]
        ],
    }


def record_paper_size() -> tuple[PaperSizeRun, dict]:
    run = measure_paper_size(**(SMOKE_SIZE if SMOKE else {}))
    record = paper_size_record(run, SMOKE)
    update_bench_record(RESULT_PATH, record)
    return run, record


def test_paper_size_record():
    _, record = record_paper_size()
    system = record["system"]
    assert 0 < system["free_equations"] < system["equations"]
    assert system["g_nnz"] > 0 and system["coarse_dim"] > 0
    for scan in record["scans"]:
        assert scan["iterations"] > 0
        assert scan["rel_residual"] <= 1.01 * DEFAULT_SOLVER_TOL
    if not SMOKE:
        assert (system["equations"], system["free_equations"]) == (77250, 57762)


def main() -> None:
    run, _ = record_paper_size()
    print(format_paper_size(run))
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    main()
