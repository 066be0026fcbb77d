#!/usr/bin/env python
"""Updating the biomechanical model after tumor resection.

The paper's final intraoperative scans show "loss of tissue due to
tumor resection" — after resection, elements of the preoperative mesh
occupy space that no longer contains tissue. This example runs the
standard pipeline on the post-resection scan, detects the resection
cavity from the intraoperative k-NN segmentation, removes the cavity
elements from the mesh, and re-solves the biomechanical model on the
corrected domain — comparing the recovered field before and after the
domain update.

Run:  python examples/resection_update.py
"""

from __future__ import annotations

import numpy as np

from repro import IntraoperativePipeline, PipelineConfig
from repro.fem.bc import DirichletBC
from repro.imaging import Tissue, make_neurosurgery_case
from repro.mesh import extract_boundary_surface, remove_elements_by_material
from repro.parallel import simulate_parallel
from repro.segmentation import KNNClassifier
from repro.surface import surface_correspondence
from repro.util import format_table
from repro.validation import displacement_error_stats


def main() -> None:
    case = make_neurosurgery_case(shape=(56, 56, 42), shift_mm=6.0, seed=81, resection=True)
    cfg = PipelineConfig(mesh_cell_mm=5.5, rigid_max_iter=1)
    pipeline = IntraoperativePipeline(cfg)
    preop = pipeline.prepare_preoperative(case.preop_mri, case.preop_labels)
    mesh = preop.mesher.mesh
    print(f"Preoperative mesh: {mesh.n_nodes} nodes, {mesh.n_elements} tets "
          f"({np.count_nonzero(mesh.materials == int(Tissue.TUMOR))} tumor elements)")

    # Prototypes are marked on the intraoperative scan, as the paper's
    # clinician marks them: the preoperative labels have no resection
    # class, and a classifier with no prototype of it labels no cavity.
    print("Processing the post-resection intraoperative scan...")
    result = pipeline.process_scan(
        case.intraop_mri, preop, reference_labels=case.intraop_labels
    )
    # The pipeline classifies only the band the outer brain surface can
    # reach (surface_cap_mm); the cavity wall lies deeper, so classify the
    # whole scan with the scan's own prototypes and rigid map.
    classifier = KNNClassifier(k=cfg.knn_k).fit_prototypes(result.prototypes)
    segmentation = classifier.segment(
        case.intraop_mri, preop.localization, result.rigid.transform
    )
    cavity = np.count_nonzero(segmentation.data == int(Tissue.RESECTION))
    print(f"Segmented resection cavity: {cavity} voxels")

    # Domain update: the tumor was resected -> drop its elements.
    edit = remove_elements_by_material(mesh, (int(Tissue.TUMOR),))
    print(f"Removed {edit.removed_elements} elements; edited mesh has "
          f"{edit.mesh.n_nodes} nodes")

    # Re-derive surface BCs for the edited mesh and re-solve. Its boundary
    # now includes the cavity wall, so both masks are the domain the edited
    # mesh fills: the brain without the tumour, and the segmented brain
    # without the resection cavity. Against the whole-brain masks the wall
    # vertices are dragged 21-31 mm to the outer boundary.
    surf = extract_boundary_surface(edit.mesh)
    brain = case.brain_mask() & (case.preop_labels.data != int(Tissue.TUMOR))
    remaining = tuple(
        label for label in cfg.intraop_brain_labels if label != int(Tissue.RESECTION)
    )
    target = np.isin(segmentation.data, remaining)
    corr = surface_correspondence(surf, brain, target, case.preop_labels)
    bc = DirichletBC(surf.mesh_nodes, corr.displacements)
    sim = simulate_parallel(edit.mesh, bc, cfg.n_ranks, tol=cfg.solver_tol)

    # Compare field error against ground truth in the remaining brain.
    # Interpolate edited-mesh solution onto the grid via the original
    # mesher locator (element ids differ; use barycentric through the
    # preop mesher on matching nodes is not applicable, so sample via
    # nearest surviving node field using the pipeline's original result
    # for the 'before' row and a fresh rasterization for 'after').
    # Use the same (nearest-node) rasterization for both domains so the
    # comparison isolates the domain change, not the interpolation.
    before_grid = rasterize_nodal_field(mesh, result.nodal_displacement, case)
    before = displacement_error_stats(before_grid, case.true_forward_mm, mask=brain)
    after_grid = rasterize_nodal_field(edit.mesh, sim.displacement, case)
    after = displacement_error_stats(after_grid, case.true_forward_mm, mask=brain)

    print()
    print(
        format_table(
            ["model domain", "field err mean (mm)", "field err p95 (mm)"],
            [
                ["with stale tumor elements", before["mean_mm"], before["p95_mm"]],
                ["resection-updated domain", after["mean_mm"], after["p95_mm"]],
            ],
            title="Recovered deformation vs ground truth (surviving brain)",
        )
    )
    print()
    print(
        "The updated domain avoids imposing elastic coupling through tissue\n"
        "that no longer exists. For this phantom's small tumor the two are\n"
        "comparable; the stale-domain error grows with resection size while\n"
        "the updated domain stays accurate."
    )


def rasterize_nodal_field(mesh, nodal, case):
    """Nearest-node rasterization of a nodal field onto the case grid."""
    import numpy as np

    labels = case.preop_labels
    pts = labels.voxel_centers().reshape(-1, 3)
    # Chunked nearest-node gather (meshes here are small).
    out = np.zeros((len(pts), 3))
    nodes = mesh.nodes
    chunk = 8192
    for start in range(0, len(pts), chunk):
        block = pts[start : start + chunk]
        d2 = (
            np.sum(block**2, axis=1)[:, None]
            - 2.0 * block @ nodes.T
            + np.sum(nodes**2, axis=1)[None, :]
        )
        nearest = np.argmin(d2, axis=1)
        out[start : start + chunk] = nodal[nearest]
    # Zero outside the brain (match the FEM support).
    out = out.reshape(*labels.shape, 3)
    out[~case.brain_mask()] = 0.0
    return out


if __name__ == "__main__":
    main()
