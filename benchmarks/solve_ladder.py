#!/usr/bin/env python3
"""What the solve ladder does under each solver fault, and healthy solves by P.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 benchmarks/solve_ladder.py

On ``build_clinical_system(30000, shape=(64, 64, 48))`` (29,823
equations, 19,761 free), partitioned by ``coordinate_bisection`` with the solve
context prepared at P = 4 on the pipeline's preconditioner, prints:

* ``0:kill-rank=1`` and ``0:stagnate-solver`` through
  ``solve_with_escalation``: every attempt's rung, iterations and
  seconds, the whole ladder's seconds, and for the rescue its field's
  checksum and its distance from a one-rank ``PIPELINE_PRECONDITIONER``
  solve;
* healthy solves at P = 1/2/4/8/16 with the pipeline's preconditioner,
  each on an isolated context (set-up included in the wall time).

It uses only names both sides of the ladder's change have, so running
it from another checkout's ``src/`` gives that tree's rows (EXPERIMENTS.md
"Solve ladder" interleaves two trees' runs).
"""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.common import build_clinical_system
from repro.parallel.simulation import prepare_solve_context, simulate_parallel
from repro.parallel.solver import PIPELINE_PRECONDITIONER
from repro.resilience import FaultPlan, solve_with_escalation
from repro.util import checksum_array

PARTITIONER = "coordinate_bisection"
RANKS = 4


def main() -> None:
    system = build_clinical_system(30000, shape=(64, 64, 48))
    mesh, bc = system.mesher.mesh, system.bc
    context = prepare_solve_context(
        mesh, bc.node_ids, RANKS, partitioner=PARTITIONER,
        preconditioner=PIPELINE_PRECONDITIONER,
    )
    one_rank = simulate_parallel(
        mesh, bc, 1, partitioner=PARTITIONER, preconditioner=PIPELINE_PRECONDITIONER
    )
    print(f"system: {system.n_dof} equations, {one_rank.n_equations} free, P = {RANKS}")
    for plan in ("0:kill-rank=1", "0:stagnate-solver"):
        t0 = time.perf_counter()
        outcome = solve_with_escalation(
            mesh, bc, n_ranks=RANKS, partitioner=PARTITIONER, context=context,
            faults=FaultPlan.parse(plan, seed=0), scan_index=0,
        )
        seconds = time.perf_counter() - t0
        rungs = ", ".join(
            f"{a.rung} {'ok' if a.ok else 'fail'} {a.iterations} it {a.seconds:.2f} s"
            for a in outcome.attempts
        )
        line = f"{plan}: {rungs}; ladder {seconds:.2f} s"
        if outcome.succeeded:
            field = outcome.simulation.displacement
            gap = float(np.abs(field - one_rank.displacement).max())
            line += (
                f"; field sha {checksum_array(field)[:16]}, "
                f"max |du| vs one-rank pipeline solve {gap:.1e}"
            )
        print(line)
    print("healthy solves, isolated context: P | iterations | wall s")
    for n_ranks in (1, 2, 4, 8, 16):
        t0 = time.perf_counter()
        sim = simulate_parallel(
            mesh, bc, n_ranks, partitioner=PARTITIONER, preconditioner=PIPELINE_PRECONDITIONER
        )
        seconds = time.perf_counter() - t0
        print(f"{n_ranks} | {sim.solver.iterations} | {seconds:.2f}")


if __name__ == "__main__":
    main()
