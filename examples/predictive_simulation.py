#!/usr/bin/env python
"""Predictive simulation: gravity-driven brain shift before it happens.

The paper motivates biomechanical (rather than purely image-driven)
registration partly by prediction: a physical model can be *loaded* with
anticipated forces instead of fitted to images after the fact. This
example predicts the post-craniotomy sag of the phantom brain under
gravity (with partial CSF buoyancy loss), then compares the prediction
against the "actual" deformation of the intraoperative scan pair.

Run:  python examples/predictive_simulation.py
"""

from __future__ import annotations

import numpy as np

from repro.core.prediction import predict_gravity_shift, support_nodes
from repro.fem.material import BRAIN_HETEROGENEOUS, BRAIN_HOMOGENEOUS
from repro.imaging import Tissue, make_neurosurgery_case
from repro.imaging.resample import trilinear_sample
from repro.imaging.volume import ImageVolume
from repro.mesh import mesh_labeled_volume
from repro.util import format_table


def main() -> None:
    case = make_neurosurgery_case(shape=(56, 56, 42), shift_mm=6.0, seed=41)
    brain_labels = (
        int(Tissue.BRAIN),
        int(Tissue.VENTRICLE),
        int(Tissue.FALX),
        int(Tissue.TUMOR),
    )
    mesher = mesh_labeled_volume(case.preop_labels, 5.5, brain_labels)
    mesh = mesher.mesh
    print(f"Brain mesh: {mesh.n_nodes} nodes, {mesh.n_elements} tetrahedra")

    # Patient positioned craniotomy-up: the brain sags toward the opening's
    # inward normal as CSF drains.
    gravity = -case.craniotomy_center / np.linalg.norm(case.craniotomy_center)
    fixed = support_nodes(mesh, gravity, support_fraction=0.3)
    print(f"Support: {len(fixed)} surface nodes held against the skull")

    rows = []
    for label, materials, buoyancy in (
        ("homogeneous, partial drainage", BRAIN_HOMOGENEOUS, 0.85),
        ("homogeneous, full drainage", BRAIN_HOMOGENEOUS, 0.60),
        ("heterogeneous, partial drainage", BRAIN_HETEROGENEOUS, 0.85),
    ):
        pred = predict_gravity_shift(
            mesh,
            materials,
            gravity_direction=gravity,
            buoyancy_fraction=buoyancy,
            fixed_nodes=fixed,
        )
        mags = np.linalg.norm(pred.displacement, axis=1)
        rows.append(
            [label, pred.peak_mm, float(np.percentile(mags, 90)), pred.simulation.n_equations]
        )
    print()
    print(
        format_table(
            ["scenario", "peak sag (mm)", "p90 sag (mm)", "equations"],
            rows,
            title="Predicted gravity-driven brain shift",
        )
    )

    # Compare the predicted displacement *direction pattern* against the
    # actual (ground-truth) deformation of the scan pair.
    pred = predict_gravity_shift(
        mesh, BRAIN_HOMOGENEOUS, gravity_direction=gravity, buoyancy_fraction=0.85, fixed_nodes=fixed
    )
    labels = case.preop_labels
    true_at_nodes = np.stack(
        [
            trilinear_sample(
                ImageVolume(
                    np.ascontiguousarray(case.true_forward_mm[..., a]),
                    labels.spacing,
                    labels.origin,
                ),
                mesh.nodes,
            )
            for a in range(3)
        ],
        axis=-1,
    )
    pm = np.linalg.norm(pred.displacement, axis=1)
    tm = np.linalg.norm(true_at_nodes, axis=1)
    both = (pm > 0.25 * pm.max()) & (tm > 0.25 * tm.max())
    cos = np.einsum(
        "ij,ij->i",
        pred.displacement[both] / pm[both, None],
        true_at_nodes[both] / tm[both, None],
    )
    corr = float(np.corrcoef(pm, tm)[0, 1])
    print()
    print(
        f"Prediction vs actual deformation: directional agreement "
        f"{np.mean(cos):.2f} (cosine, moving region), magnitude-pattern "
        f"correlation {corr:.2f} over all nodes"
    )
    print(
        "The prediction localizes the sag at the craniotomy with the right\n"
        "direction before any intraoperative image is acquired — the\n"
        "registration pipeline then corrects the residual against real scans."
    )


if __name__ == "__main__":
    main()
