"""Solver tolerance: what each decade of the GMRES stopping rule buys.

``repro.solver.DEFAULT_SOLVER_TOL`` is ``1e-5``, PETSc's default
relative tolerance on the left-preconditioned residual and so what the
paper's solver ran at; every production solve asked for ``1e-7`` before.
This study is the evidence the constant ships on. For tol in
{1e-7, 1e-6, 1e-5, 1e-4} it runs

* **the ``session-fem`` geometry of ``benchmarks/e2e``** (its phantom,
  noise realisations and pipeline settings; 22.8 k free equations on 4
  ranks), seeds 0-9: a whole session -- the set-up scan, then the eight
  scans ``BENCHMARK.json``'s ``field_err_mm`` is taken over -- with
  ``PipelineConfig.solver_tol`` the only difference, recording per scan
  the GMRES iterations and restarts, the simulation stage's wall
  seconds, the nodal field's max-norm distance from the same session at
  ``1e-10`` and the field error against the phantom's truth (the active
  surface never reads a solved field, so every session of a seed solves
  the same eight boundary-condition sets); seed 0 runs once more on the
  Deep Flow machine model for the virtual solve seconds;
* **the paper-size system** (``PAPER_SYSTEM_SMALL``, 77 k equations, 16
  ranks, one prepared context, cold start vector): iterations, restarts,
  wall and Deep Flow seconds, and the distance from ``1e-10``.

Writes ``BENCH_solver_tolerance.json``; ``main()`` prints the
EXPERIMENTS.md table ("Solver tolerance") and asserts the criteria.

Runnable standalone: ``PYTHONPATH=src python benchmarks/test_solver_tolerance.py``
(about 7 minutes; ``REPRO_BENCH_SMOKE=1`` runs two seeds and no
paper-size row, about 1 minute).
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "e2e"))

from inputs import make_inputs  # noqa: E402
from spec import DETERMINISTIC_SCANS, WORKLOADS  # noqa: E402

from repro import IntraoperativePipeline, PipelineConfig  # noqa: E402
from repro.core.session import SurgicalSession  # noqa: E402
from repro.experiments.common import PAPER_SYSTEM_SMALL, build_clinical_system  # noqa: E402
from repro.machines.spec import DEEP_FLOW  # noqa: E402
from repro.parallel.simulation import prepare_solve_context, simulate_parallel  # noqa: E402
from repro.solver import DEFAULT_SOLVER_TOL  # noqa: E402

pytestmark = pytest.mark.bench

RESULT_PATH = pathlib.Path(__file__).with_name("BENCH_solver_tolerance.json")
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

GEOMETRY = "session-fem"
SEEDS = (0, 1) if SMOKE else tuple(range(10))
TOLERANCES = (1e-7, 1e-6, 1e-5, 1e-4)
REFERENCE_TOL = 1e-10
PAPER_RANKS = 16

#: The criteria the constant ships on: nodal field within this of the
#: ``1e-10`` solve (mm), per-seed field error within this of ``1e-7`` (mm).
SESSION_MAX_DU_MM = 1e-3
PAPER_MAX_DU_MM = 2e-3
FIELD_ERR_BAND_MM = 1e-5


def session_scans(workload, inputs, tol: float, machine=None) -> list[dict]:
    """One session at ``solver_tol=tol``: a row per counted scan."""
    patient = inputs.patients[0]
    pipeline = IntraoperativePipeline(
        PipelineConfig(**workload.config, solver_tol=tol), machine=machine
    )
    session = SurgicalSession.begin(pipeline, patient.preop_mri, inputs.preop_labels)
    session.process(patient.scans[0])
    rows = []
    for index in range(DETERMINISTIC_SCANS):
        k = (index + 1) % len(patient.scans)
        result = session.process(patient.scans[k])
        truth = inputs.truths[patient.scan_ids[k]]
        diff = np.asarray(result.grid_displacement) - truth.true_forward_mm
        stages = {e.stage: e.seconds for e in result.timeline.entries}
        solver = result.simulation.solver
        assert solver.converged
        rows.append(
            {
                "iterations": int(solver.iterations),
                "restarts": int(solver.restarts),
                "wall_s": stages["biomechanical simulation"],
                "virtual_s": float(result.simulation.solve_seconds),
                "field_err_mm": float(np.linalg.norm(diff, axis=-1)[inputs.brain_mask].mean()),
                "nodal": np.array(result.nodal_displacement),
                "free_equations": int(result.simulation.n_equations),
            }
        )
    return rows


def session_study(seeds=SEEDS) -> dict:
    """Per tolerance, one entry per seed (each a summary of its eight scans)."""
    workload = WORKLOADS[GEOMETRY]
    by_tol = {f"{tol:g}": [] for tol in TOLERANCES}
    free_equations = 0
    for seed in seeds:
        inputs = make_inputs(workload, seed, n_patients=1)
        reference = session_scans(workload, inputs, REFERENCE_TOL)
        free_equations = reference[0]["free_equations"]
        for tol in TOLERANCES:
            rows = session_scans(workload, inputs, tol)
            entry = {
                "seed": seed,
                "iterations": [row["iterations"] for row in rows],
                "restarts": [row["restarts"] for row in rows],
                "wall_s_median": statistics.median(row["wall_s"] for row in rows),
                "max_du_mm": max(
                    float(np.abs(row["nodal"] - ref["nodal"]).max())
                    for row, ref in zip(rows, reference)
                ),
                "field_err_mm": statistics.fmean(row["field_err_mm"] for row in rows),
            }
            if seed == seeds[0]:
                modelled = session_scans(workload, inputs, tol, machine=DEEP_FLOW)
                entry["virtual_s_median"] = statistics.median(
                    row["virtual_s"] for row in modelled
                )
            by_tol[f"{tol:g}"].append(entry)
    return {
        "shape": list(workload.shape),
        "n_ranks": workload.config["n_ranks"],
        "free_equations": free_equations,
        "scans_per_seed": DETERMINISTIC_SCANS,
        "by_tol": by_tol,
    }


def paper_size_study() -> dict:
    """The 77 k-equation system on 16 ranks: one prepared context, cold starts."""
    system = build_clinical_system(PAPER_SYSTEM_SMALL)
    context = prepare_solve_context(system.mesh, system.bc.node_ids, PAPER_RANKS)
    solve = lambda tol, machine=None: simulate_parallel(  # noqa: E731
        system.mesh, system.bc, PAPER_RANKS, machine=machine, tol=tol,
        context=context,
    )
    reference = solve(REFERENCE_TOL)
    by_tol = {}
    for tol in TOLERANCES:
        sim = solve(tol)  # touches the pages the timed solves reuse
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            solve(tol)
            walls.append(time.perf_counter() - t0)
        assert sim.solver.converged and sim.cache_hit
        by_tol[f"{tol:g}"] = {
            "iterations": int(sim.solver.iterations),
            "restarts": int(sim.solver.restarts),
            "wall_s": min(walls),
            "virtual_s": float(solve(tol, DEEP_FLOW).solve_seconds),
            "max_du_mm": float(np.abs(sim.displacement - reference.displacement).max()),
        }
    return {
        "equations": int(system.n_dof),
        "free_equations": int(reference.n_equations),
        "n_ranks": PAPER_RANKS,
        "max_abs_u_mm": float(np.abs(reference.displacement).max()),
        "reference_iterations": int(reference.solver.iterations),
        "by_tol": by_tol,
    }


def run_study() -> dict:
    record = {
        "smoke": SMOKE,
        "seeds": list(SEEDS),
        "default_tol": DEFAULT_SOLVER_TOL,
        "reference_tol": REFERENCE_TOL,
        GEOMETRY: session_study(),
    }
    if not SMOKE:
        record["paper-size"] = paper_size_study()
    record["summary"] = summarise(record)
    return record


def summarise(record: dict) -> dict:
    """Per tolerance: the aggregates the table prints and the criteria read."""
    by_tol = record[GEOMETRY]["by_tol"]
    tight = {entry["seed"]: entry["field_err_mm"] for entry in by_tol["1e-07"]}
    out = {}
    for tol, entries in by_tol.items():
        iterations = [n for entry in entries for n in entry["iterations"]]
        out[tol] = {
            "iterations_median": statistics.median(iterations),
            "iterations_range": [min(iterations), max(iterations)],
            "restarts_median": statistics.median(
                n for entry in entries for n in entry["restarts"]
            ),
            "wall_s_median": statistics.median(e["wall_s_median"] for e in entries),
            "virtual_s_median": entries[0]["virtual_s_median"],
            "max_du_mm_range": [
                min(e["max_du_mm"] for e in entries),
                max(e["max_du_mm"] for e in entries),
            ],
            "field_err_mm_mean": statistics.fmean(e["field_err_mm"] for e in entries),
            "field_err_vs_1e-7_mm_max": max(
                abs(e["field_err_mm"] - tight[e["seed"]]) for e in entries
            ),
        }
    return out


def check_acceptance(record: dict) -> None:
    """At the shipped default: the field where it was, in fewer iterations."""
    default = f"{record['default_tol']:g}"
    shipped, tight = record["summary"][default], record["summary"]["1e-07"]
    assert shipped["max_du_mm_range"][1] <= SESSION_MAX_DU_MM
    assert shipped["field_err_vs_1e-7_mm_max"] <= FIELD_ERR_BAND_MM
    assert shipped["iterations_median"] <= 0.75 * tight["iterations_median"]
    if "paper-size" in record:
        rows = record["paper-size"]["by_tol"]
        assert rows[default]["max_du_mm"] <= PAPER_MAX_DU_MM
        assert rows[default]["iterations"] <= 0.75 * rows["1e-07"]["iterations"]


def table(record: dict) -> str:
    geometry = record[GEOMETRY]
    lines = [
        "| system | tol | iterations: median (range) | restarts | solve, wall (median) | "
        "solve, Deep Flow model | max \\|Δu\\| vs `1e-10` | mean `field_err_mm` | "
        "largest per-seed change vs `1e-7` |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    name = (
        f"`{GEOMETRY}` geometry, {geometry['free_equations']:,} free eq., "
        f"{geometry['n_ranks']} ranks, seeds {record['seeds'][0]}–{record['seeds'][-1]} "
        f"× {geometry['scans_per_seed']} scans"
    )
    for tol, row in record["summary"].items():
        lo, hi = row["iterations_range"]
        du_lo, du_hi = (1e3 * v for v in row["max_du_mm_range"])
        lines.append(
            f"| {name} | `{tol}` | {row['iterations_median']:g} ({lo}–{hi}) "
            f"| {row['restarts_median']:g} | {1e3 * row['wall_s_median']:.0f} ms "
            f"| {row['virtual_s_median']:.2f} s | {du_lo:.3g}–{du_hi:.3g} µm "
            f"| {row['field_err_mm_mean']:.6f} "
            f"| {1e6 * row['field_err_vs_1e-7_mm_max']:.2g} nm |"
        )
    if "paper-size" in record:
        paper = record["paper-size"]
        name = (
            f"`PAPER_SYSTEM_SMALL`, {paper['equations']:,} eq. "
            f"({paper['free_equations']:,} free), {paper['n_ranks']} ranks, "
            f"max \\|u\\| {paper['max_abs_u_mm']:.1f} mm"
        )
        for tol, row in paper["by_tol"].items():
            lines.append(
                f"| {name} | `{tol}` | {row['iterations']} | {row['restarts']} "
                f"| {row['wall_s']:.2f} s | {row['virtual_s']:.2f} s "
                f"| {1e3 * row['max_du_mm']:.3g} µm | — | — |"
            )
    return "\n".join(lines)


def main() -> None:
    record = run_study()
    RESULT_PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(table(record))
    check_acceptance(record)


def test_solver_tolerance_study():
    main()


if __name__ == "__main__":
    main()
