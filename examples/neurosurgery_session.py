#!/usr/bin/env python
"""A multi-scan neurosurgery session, as in the paper's clinical cases.

"In each neurosurgery case several volumetric MRI scans were carried out
during surgery. The first scan was acquired at the beginning of the
procedure before any changes in the shape of the brain took place, and
then over the course of surgery other scans were acquired as the surgeon
checked the progress of tumor resection."

This example simulates that workflow: the preoperative model is prepared
once; three successive intraoperative scans show progressively larger
brain shift (the final one with the tumor resected). Prototype voxels
are picked interactively on the *first* scan only and re-used for every
later scan — the paper's automatic statistical-model update. The FEM
stage likewise precomputes its scan-invariant state (assembled
stiffness, elimination structure, subdomain factors) preoperatively, so
every scan's biomechanical simulation is a data-only fast path: the
right-hand side and a GMRES solve from zero.

Run:  python examples/neurosurgery_session.py
"""

from __future__ import annotations

import numpy as np

from repro import IntraoperativePipeline, PipelineConfig
from repro.imaging import make_neurosurgery_case
from repro.util import format_table


def main() -> None:
    shape = (56, 56, 42)
    config = PipelineConfig(mesh_cell_mm=5.5, n_ranks=4, rigid_max_iter=2)
    pipeline = IntraoperativePipeline(config)

    # Progressive intraoperative states: shift grows over the procedure;
    # the tumor disappears in the final scan. All scans share the same
    # patient (same seed -> same anatomy) with fresh scanner noise.
    stages = [
        ("early (dura opened)", 2.0, False),
        ("mid-resection", 4.5, False),
        ("post-resection", 6.5, True),
    ]
    cases = [
        make_neurosurgery_case(
            shape=shape, shift_mm=shift, resection=resected, seed=100 + i
        )
        for i, (_, shift, resected) in enumerate(stages)
    ]
    # The preoperative data comes from the first case's reference scan.
    reference = cases[0]

    print("Preparing preoperative model (done before surgery)...")
    preop = pipeline.prepare_preoperative(reference.preop_mri, reference.preop_labels)

    prototypes = None
    rows = []
    for (label, shift, resected), case in zip(stages, cases):
        result = pipeline.process_scan(
            case.intraop_mri, preop, prototypes=prototypes
        )
        prototypes = result.prototypes  # recorded once, re-used afterwards
        corr = result.correspondence
        err = np.linalg.norm(result.grid_displacement - case.true_forward_mm, axis=-1)
        brain = case.brain_mask()
        sim = result.simulation
        fem_path = "hit" if sim.cache_hit else "cold"
        rows.append(
            [
                label,
                shift,
                "yes" if resected else "no",
                float(corr.magnitudes.max()),
                result.match_rigid_rms,
                result.match_simulated_rms,
                float(err[brain].mean()),
                result.timeline.total("intraoperative"),
                f"{fem_path} ({sim.solver.iterations} it)",
            ]
        )
        print(f"  processed scan: {label} (surface |u| max {corr.magnitudes.max():.1f} mm)")

    print()
    print(
        format_table(
            [
                "scan",
                "imposed shift (mm)",
                "resected",
                "recovered surface |u| max (mm)",
                "rigid RMS",
                "simulated RMS",
                "field err mean (mm)",
                "processing (s)",
                "FEM path",
            ],
            rows,
            title="Intraoperative session summary",
        )
    )
    print()
    print(
        "Note how the biomechanical match stays close across the session while\n"
        "rigid-only alignment degrades as the brain deforms — the paper's case\n"
        "for intraoperative nonrigid registration. Every FEM stage above ran on\n"
        "the precomputed solve context (assembly, elimination and factorization\n"
        "done preoperatively)."
    )


if __name__ == "__main__":
    main()
