"""Snap phase: what the membrane buys while the mesh boundary is put on the mask.

The two-phase active surface first *snaps* the coarse mesh boundary
onto the preoperative brain mask and only then *tracks* the
intraoperative one (``repro.surface.correspondence``). The snap ran the
track's elastic membrane, whose internal force penalises the
vertex-by-vertex displacement from the rest shape -- the very offset the
snap exists to absorb -- so it crept until the 5 um stop tripped, still
0.3-0.7 mm off the boundary, and the track reported that leftover as
displacement where nothing moved. ``snap_surface`` now projects: the
distance force alone. This study is the evidence it ships on. Rows:

* ``membrane 0.4`` -- the snap as it was (``evolve_surface`` with the
  track's ``smoothing``), and ``membrane 0.1``;
* ``none`` -- the shipped ``snap_surface``;
* ``membrane 0.4, 10 / 20 / 30 it`` -- the old snap stopped early.

For each row and each of the four ``benchmarks/e2e`` geometries (their
phantom, noise realisations and pipeline settings, read-only) it records
the snap's iterations, residual mean |phi|, flipped-or-degenerate
triangle count and seconds (force-field build included, as the
``surface snap`` span times it), then, seeds 0-9, runs a session over
the patient's four scans (``serve-newpatient``: four patients, one scan
each) with that snap stored on the model: track iterations per scan and
the mean field error against the phantom's truth. The Fig. 4/5 case runs
once per row for the displacement measured away from the craniotomy.

Writes ``BENCH_surface_snap.json``; ``main()`` prints the EXPERIMENTS.md
tables ("Snap phase") and asserts the criteria.

Runnable standalone: ``PYTHONPATH=src python benchmarks/test_surface_snap.py``
(about 6 minutes; ``REPRO_BENCH_SMOKE=1`` runs two seeds on two
geometries, about 1 minute).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import re
import statistics
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "e2e"))

from inputs import make_inputs  # noqa: E402
from session_load import field_error_mm  # noqa: E402
from spec import WORKLOADS  # noqa: E402

from repro import IntraoperativePipeline, PipelineConfig  # noqa: E402
from repro.core.session import SurgicalSession  # noqa: E402
from repro.experiments import fig5  # noqa: E402
from repro.experiments.fig4 import Fig4Outcome  # noqa: E402
from repro.imaging.phantom import make_neurosurgery_case  # noqa: E402
from repro.surface import DistanceForceField, evolve_surface, snap_surface  # noqa: E402

pytestmark = pytest.mark.bench

RESULT_PATH = pathlib.Path(__file__).with_name("BENCH_surface_snap.json")
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

GEOMETRIES = (
    ("session-image", "serve-newpatient")
    if SMOKE
    else ("session-image", "serve-steady", "session-fem", "serve-newpatient")
)
SEEDS = (0, 1) if SMOKE else tuple(range(10))

BEFORE = "membrane 0.4"
SHIPPED = "none"
#: row -> (membrane smoothing, iteration cap); ``None`` smoothing is the
#: shipped ``snap_surface``.
VARIANTS = {
    BEFORE: (0.4, None),
    "membrane 0.1": (0.1, None),
    SHIPPED: (None, None),
    "membrane 0.4, 10 it": (0.4, 10),
    "membrane 0.4, 20 it": (0.4, 20),
    "membrane 0.4, 30 it": (0.4, 30),
}

#: The criteria the projection ships on.
SNAP_RESIDUAL_MM = 0.02
SNAP_ITERATIONS = 15
FIG45_MEDIAN_U_MM = 0.05
FIG45_NEAR_BAND = 0.05


def run_snap(variant: str, surface, brain_mask, labels, config: PipelineConfig):
    """One row's snap under ``config``'s surface settings."""
    smoothing, cap = VARIANTS[variant]
    evolution = dict(iterations=config.surface_iterations, step_size=config.surface_step)
    if smoothing is None:
        return snap_surface(surface, brain_mask, labels, config.surface_cap_mm, **evolution)
    if cap is not None:
        evolution["iterations"] = min(cap, evolution["iterations"])
    field = DistanceForceField.from_mask(brain_mask, labels, config.surface_cap_mm)
    return evolve_surface(surface, field, smoothing=smoothing, **evolution)


def degenerate_triangles(surface, positions: np.ndarray) -> int:
    """Triangles the move flipped or collapsed (unit normal against the rest one)."""
    along_rest = np.einsum(
        "ij,ij->i", surface.triangle_normals(positions), surface.triangle_normals()
    )
    return int(np.count_nonzero(along_rest <= 0.0))


def snap_row(variant: str, preop, config: PipelineConfig) -> tuple[dict, object]:
    seconds = []
    for _ in range(3):
        t0 = time.perf_counter()
        snapped = run_snap(variant, preop.surface, preop.brain_mask, preop.labels, config)
        seconds.append(time.perf_counter() - t0)
    row = {
        "iterations": int(snapped.iterations),
        "converged": bool(snapped.converged),
        "residual_mm": float(snapped.mean_residual_mm),
        "degenerate_triangles": degenerate_triangles(preop.surface, snapped.positions),
        "seconds": min(seconds),
    }
    return row, snapped


def track_patient(pipeline, inputs, patient, variant: str) -> list[dict]:
    """A session over one patient's scans with ``variant``'s snap on the model."""
    preop = pipeline.prepare_preoperative(patient.preop_mri, inputs.preop_labels)
    snapped = run_snap(variant, preop.surface, preop.brain_mask, preop.labels, pipeline.config)
    preop = dataclasses.replace(preop, snapped=snapped)
    session = SurgicalSession.begin(
        pipeline, patient.preop_mri, inputs.preop_labels, preop=preop
    )
    rows = []
    for scan, scan_id in zip(patient.scans, patient.scan_ids):
        result = session.process(scan)
        assert result.correspondence.snapped is snapped
        assert not result.degradation.degraded
        rows.append(
            {
                "track_iterations": int(result.correspondence.tracked.iterations),
                "field_err_mm": field_error_mm(
                    result, inputs.truths[scan_id], inputs.brain_mask
                ),
            }
        )
    return rows


def geometry_study(name: str) -> dict:
    workload = WORKLOADS[name]
    config = PipelineConfig(**workload.config)
    pipeline = IntraoperativePipeline(config)
    n_patients = 4 if workload.new_patients else 1
    by_variant = {variant: {"seeds": []} for variant in VARIANTS}
    vertices = 0
    for seed in SEEDS:
        inputs = make_inputs(workload, seed, n_patients=n_patients)
        if seed == SEEDS[0]:
            # The snap reads the labels only, never a seed's voxel values.
            preop = pipeline.prepare_preoperative(
                inputs.patients[0].preop_mri, inputs.preop_labels
            )
            vertices = int(preop.surface.n_vertices)
            for variant in VARIANTS:
                by_variant[variant]["snap"] = snap_row(variant, preop, config)[0]
        for variant in VARIANTS:
            rows = [
                row
                for patient in inputs.patients
                for row in track_patient(pipeline, inputs, patient, variant)
            ]
            by_variant[variant]["seeds"].append(
                {
                    "seed": seed,
                    "track_iterations": [row["track_iterations"] for row in rows],
                    "field_err_mm": statistics.fmean(row["field_err_mm"] for row in rows),
                }
            )
    return {
        "shape": list(workload.shape),
        "vertices": vertices,
        "surface_iterations": config.surface_iterations,
        "scans_per_seed": 4,
        "by_variant": by_variant,
    }


def fig45_study() -> dict:
    """The Fig. 4/5 case (``fig4.run``'s defaults) with each row's snap."""
    case = make_neurosurgery_case(shape=(64, 64, 48), shift_mm=6.0, seed=11)
    config = PipelineConfig(mesh_cell_mm=5.0, n_ranks=2)
    pipeline = IntraoperativePipeline(config)
    built = pipeline.prepare_preoperative(case.preop_mri, case.preop_labels)
    out = {}
    for variant in VARIANTS:
        snap, snapped = snap_row(variant, built, config)
        preop = dataclasses.replace(built, snapped=snapped)
        preop.invalidate_solve_context()  # no warm start from the previous row
        result = pipeline.process_scan(case.intraop_mri, preop)
        report = fig5.run(Fig4Outcome(report=None, case=case, result=result))
        values = {row[0]: row[1] for row in report.rows}
        out[variant] = {
            "snap_iterations": snap["iterations"],
            "track_iterations": int(result.correspondence.tracked.iterations),
            "u_p50_mm": values["|u| p50 (mm)"],
            "u_near_mm": values["mean |u| within 35mm of craniotomy (mm)"],
            "u_elsewhere_mm": values["mean |u| elsewhere (mm)"],
            "inward_alignment": values["mean inward alignment of moving vertices"],
        }
    return {"vertices": int(built.surface.n_vertices), "by_variant": out}


def summarise(record: dict) -> dict:
    """Per geometry and row: the aggregates the table prints and the criteria read."""
    out = {}
    for name in record["geometries"]:
        by_variant = record[name]["by_variant"]
        before = {e["seed"]: e["field_err_mm"] for e in by_variant[BEFORE]["seeds"]}
        out[name] = {}
        for variant, data in by_variant.items():
            tracks = [n for e in data["seeds"] for n in e["track_iterations"]]
            changes = [e["field_err_mm"] - before[e["seed"]] for e in data["seeds"]]
            out[name][variant] = {
                "track_iterations_median": statistics.median(tracks),
                "track_iterations_range": [min(tracks), max(tracks)],
                "field_err_mm_mean": statistics.fmean(
                    e["field_err_mm"] for e in data["seeds"]
                ),
                "seeds_not_worse": sum(change <= 0 for change in changes),
                "field_err_change_median_mm": statistics.median(changes),
            }
    return out


def run_study() -> dict:
    record = {
        "smoke": SMOKE,
        "seeds": list(SEEDS),
        "geometries": list(GEOMETRIES),
        "before": BEFORE,
        "shipped": SHIPPED,
    }
    for name in GEOMETRIES:
        record[name] = geometry_study(name)
    record["fig45"] = fig45_study()
    record["summary"] = summarise(record)
    return record


def check_acceptance(record: dict) -> None:
    """The shipped row: on the boundary in a handful of steps, the field no worse."""
    needed = math.ceil(0.9 * len(record["seeds"]))
    for name in record["geometries"]:
        snap = record[name]["by_variant"][SHIPPED]["snap"]
        assert snap["converged"] and snap["iterations"] <= SNAP_ITERATIONS, (name, snap)
        assert snap["residual_mm"] < SNAP_RESIDUAL_MM, (name, snap)
        shipped = record["summary"][name][SHIPPED]
        assert shipped["seeds_not_worse"] >= needed, (name, shipped)
        assert shipped["field_err_change_median_mm"] <= 0, (name, shipped)
    fig45 = record["fig45"]["by_variant"]
    assert fig45[SHIPPED]["u_p50_mm"] < FIG45_MEDIAN_U_MM
    near, near_before = fig45[SHIPPED]["u_near_mm"], fig45[BEFORE]["u_near_mm"]
    assert abs(near - near_before) <= FIG45_NEAR_BAND * near_before


def table(record: dict) -> str:
    seeds = record["seeds"]
    lines = [
        "| geometry (vertices) | snap | snap iterations | snap residual mean \\|φ\\| | "
        "flipped / degenerate triangles | `surface snap` | track iterations: median (range) | "
        f"mean `field_err_mm`, seeds {seeds[0]}–{seeds[-1]} | seeds ≤ `{BEFORE}` | "
        "median per-seed change |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for name in record["geometries"]:
        geometry = record[name]
        label = f"`{name}` ({geometry['vertices']:,})"
        if geometry["surface_iterations"] != PipelineConfig().surface_iterations:
            label += f", `surface_iterations={geometry['surface_iterations']}`"
        for variant, data in geometry["by_variant"].items():
            snap, row = data["snap"], record["summary"][name][variant]
            lo, hi = row["track_iterations_range"]
            shown = f"**{variant}** (shipped)" if variant == SHIPPED else variant
            lines.append(
                f"| {label} | {shown} | {snap['iterations']}"
                f"{'' if snap['converged'] else ' (cap)'} | {snap['residual_mm']:.4f} mm "
                f"| {snap['degenerate_triangles']} | {1e3 * snap['seconds']:.0f} ms "
                f"| {row['track_iterations_median']:g} ({lo}–{hi}) "
                f"| {row['field_err_mm_mean']:.4f} "
                f"| {row['seeds_not_worse']}/{len(seeds)} "
                f"| {1e3 * row['field_err_change_median_mm']:+.1f} µm |"
            )
    return "\n".join(lines)


def fig45_table(record: dict) -> str:
    lines = [
        "| snap | snap iterations | track iterations | \\|u\\| p50 | mean \\|u\\| elsewhere | "
        "mean \\|u\\| within 35 mm of the craniotomy | inward alignment |",
        "|---|---|---|---|---|---|---|",
    ]
    for variant, row in record["fig45"]["by_variant"].items():
        shown = f"**{variant}** (shipped)" if variant == SHIPPED else variant
        lines.append(
            f"| {shown} | {row['snap_iterations']} | {row['track_iterations']} "
            f"| {row['u_p50_mm']:.4f} mm | {row['u_elsewhere_mm']:.3f} mm "
            f"| {row['u_near_mm']:.3f} mm | {row['inward_alignment']:.3f} |"
        )
    return "\n".join(lines)


def main() -> None:
    record = run_study()
    text = json.dumps(record, indent=1)
    # Integer lists (per-scan track iterations, seeds, shapes) on one line each.
    text = re.sub(r"\[\s+([\d,\s]+?)\s+\]", lambda m: "[" + " ".join(m[1].split()) + "]", text)
    RESULT_PATH.write_text(text + "\n")
    print(table(record))
    print()
    print(fig45_table(record))
    check_acceptance(record)


def test_surface_snap_study():
    main()


if __name__ == "__main__":
    main()
