"""Graceful degradation: always return the best compensation available.

When the full-resolution FEM path fails (and the escalation ladder in
:mod:`repro.resilience.escalation` is exhausted), the pipeline walks the
:class:`repro.resilience.DegradationLevel` ladder instead of aborting the
scan:

* ``coarse-fem`` — re-mesh the preoperative segmentation at a coarser
  cell size, map the active-surface boundary conditions onto the coarse
  surface by nearest neighbour, and solve the (much smaller) system
  serially.
* ``previous-field`` — re-apply the last good scan's deformation field;
  brain shift evolves incrementally, so yesterday's field beats no
  field.
* ``rigid-only`` — zero volumetric deformation: the neuronavigator falls
  back to what it showed before nonrigid compensation existed.

Each helper returns a :class:`FallbackField` — the building blocks
(:class:`~repro.core.IntraoperativeResult` is assembled by the pipeline,
keeping this module free of :mod:`repro.core` imports) — and the pipeline
attaches a :class:`DegradationReport` describing what happened and why.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from repro.fem.bc import DirichletBC
from repro.fem.material import BRAIN_HOMOGENEOUS, MaterialMap
from repro.imaging.resample import invert_displacement_field, warp_volume
from repro.imaging.volume import ImageVolume
from repro.machines.cost import NullTelemetry
from repro.mesh.generator import GridTetraMesher, mesh_labeled_volume
from repro.mesh.surface import TriangleSurface, extract_boundary_surface
from repro.parallel.simulation import ParallelSimulation, simulate_parallel
from repro.parallel.solver import PIPELINE_PRECONDITIONER
from repro.resilience.guards import check_displacement_field, check_mesh_usable
from repro.resilience.policy import DegradationLevel
from repro.solver.krylov import KrylovResult
from repro.surface.correspondence import CorrespondenceResult
from repro.surface.evolve import ActiveSurfaceResult
from repro.util import ConvergenceError, ValidationError


@dataclass
class DegradationReport:
    """What the resilience layer did to produce this scan's result.

    Attached to every :class:`repro.core.IntraoperativeResult` processed
    by a resilient pipeline — ``level == FULL_FEM`` with no rungs tried
    is the healthy case.

    Attributes
    ----------
    level:
        The :class:`DegradationLevel` actually delivered.
    cause:
        Why degradation (or escalation) was needed; empty when healthy.
    rungs_tried:
        Escalation-ladder rungs attempted for the solve, in order.
    wall_seconds:
        Wall-clock spent on recovery (failed rungs + fallback work).
    faults:
        Descriptions of injected faults that actually fired this scan.
    notes:
        Free-form recovery annotations (also mirrored to the timeline).
    """

    level: DegradationLevel = DegradationLevel.FULL_FEM
    cause: str = ""
    rungs_tried: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0
    faults: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return self.level > DegradationLevel.FULL_FEM

    @property
    def escalated(self) -> bool:
        return len(self.rungs_tried) > 1

    @property
    def label(self) -> str:
        return self.level.label

    def summary(self) -> str:
        parts = [self.level.label]
        if self.rungs_tried:
            parts.append("rungs: " + " -> ".join(self.rungs_tried))
        if self.cause:
            parts.append(f"cause: {self.cause}")
        if self.faults:
            parts.append("faults: " + "; ".join(self.faults))
        return " | ".join(parts)

    def as_dict(self) -> dict:
        return {
            "level": int(self.level),
            "label": self.level.label,
            "cause": self.cause,
            "rungs_tried": list(self.rungs_tried),
            "wall_seconds": self.wall_seconds,
            "faults": list(self.faults),
            "notes": list(self.notes),
        }


@dataclass
class FallbackField:
    """A degraded-but-usable deformation result (pipeline building block).

    Everything the pipeline needs to finish the scan: the displacement
    at the *fine* mesh nodes, the dense grid field, the deformed
    preoperative MRI, and a :class:`ParallelSimulation` record (real for
    the coarse solve, synthetic otherwise) so downstream consumers
    (session tables, metrics) keep working unchanged.
    """

    level: DegradationLevel
    nodal_displacement: np.ndarray
    grid_displacement: np.ndarray
    deformed_mri: ImageVolume
    simulation: ParallelSimulation
    note: str = ""


def synthetic_simulation(
    displacement: np.ndarray, note: str = "synthetic"
) -> ParallelSimulation:
    """A zero-cost :class:`ParallelSimulation` record for non-FEM fallbacks.

    The solver record reports a converged 0-iteration solve (mirroring
    the zero-RHS contract: ``history == [0.0]``) so session summaries
    and metrics render degraded scans without special-casing.
    """
    displacement = np.asarray(displacement, dtype=float)
    solver = KrylovResult(
        x=np.zeros(0),
        converged=True,
        iterations=0,
        restarts=0,
        residual_norm=0.0,
        history=[0.0],
    )
    return ParallelSimulation(
        displacement=displacement,
        solver=solver,
        n_equations=0,
        n_dof_total=int(displacement.size),
        initialization_seconds=0.0,
        assembly_seconds=0.0,
        solve_seconds=0.0,
        cluster=NullTelemetry(),
        system=None,
        cache_hit=False,
        cache_stats=None,
    )


def resample_through_field(
    mri: ImageVolume, grid_displacement: np.ndarray
) -> ImageVolume:
    """Deform ``mri`` through a dense forward displacement field."""
    inverse = invert_displacement_field(grid_displacement, mri.spacing)
    return warp_volume(mri, inverse, fill_value=0.0)


def stub_correspondence(surface: TriangleSurface) -> CorrespondenceResult:
    """Zero-displacement correspondence for scans with no usable surface."""
    n = len(surface.vertices)
    zeros = np.zeros((n, 3))
    phase = ActiveSurfaceResult(
        displacements=zeros.copy(),
        positions=surface.vertices.copy(),
        iterations=0,
        converged=True,
        mean_residual_mm=float("nan"),
        history=[],
    )
    return CorrespondenceResult(displacements=zeros, snapped=phase, tracked=phase)


# -- fallback levels ----------------------------------------------------------

#: Mesh-cell multiplier of the coarse-FEM fallback.
COARSE_FACTOR = 2.0


def coarse_fem_fallback(
    labels: ImageVolume,
    mri: ImageVolume,
    fine_mesher: GridTetraMesher,
    fine_surface: TriangleSurface,
    surface_displacements: np.ndarray,
    brain_labels,
    materials: MaterialMap = BRAIN_HOMOGENEOUS,
    cell_mm: float = 5.0,
) -> FallbackField:
    """Biomechanical fallback on a :data:`COARSE_FACTOR`-times coarser mesh.

    The fine active-surface displacements are mapped onto the coarse
    boundary by nearest fine surface node, the (much smaller) system is
    solved serially with an isolated context and the pipeline's own
    preconditioner (:data:`repro.parallel.solver.PIPELINE_PRECONDITIONER`:
    block FSAI and CG, no sparse factorization) at the production
    tolerance, and the coarse solution is interpolated back to the fine
    mesh nodes for downstream consumers.
    Raises a :class:`repro.util.ReproError` subtype when the coarse path
    itself is unusable (degenerate mesh, diverged solve), letting the
    caller continue down the degradation ladder.
    """
    coarse_cell = float(cell_mm) * COARSE_FACTOR
    mesher = mesh_labeled_volume(labels, coarse_cell, brain_labels)
    check_mesh_usable(mesher.mesh, name="coarse fallback mesh")
    surface = extract_boundary_surface(mesher.mesh)

    displacements = np.asarray(surface_displacements, dtype=float)
    fine_nodes = fine_mesher.mesh.nodes[fine_surface.mesh_nodes]
    coarse_nodes = mesher.mesh.nodes[surface.mesh_nodes]
    _, nearest = cKDTree(fine_nodes).query(coarse_nodes)
    bc = DirichletBC(surface.mesh_nodes, displacements[nearest])

    simulation = simulate_parallel(
        mesher.mesh,
        bc,
        n_ranks=1,
        materials=materials,
        preconditioner=PIPELINE_PRECONDITIONER,
        context=None,
    )
    if not simulation.solver.converged:
        raise ConvergenceError(
            "coarse fallback solve did not converge",
            iterations=simulation.solver.iterations,
            residual=simulation.solver.residual_norm,
            solver="cg",
            stage="degradation",
        )
    check_displacement_field(
        simulation.displacement, name="coarse fallback displacement"
    )

    grid = mesher.displacement_on_grid(simulation.displacement, mri)
    nodal_fine = mesher.interpolate(
        simulation.displacement, fine_mesher.mesh.nodes, fill_value=0.0
    )
    deformed = resample_through_field(mri, grid)
    note = (
        f"coarse-fem fallback: cell {coarse_cell:.1f} mm, "
        f"{mesher.mesh.n_nodes} nodes ({fine_mesher.mesh.n_nodes} fine), "
        f"{simulation.solver.iterations} iterations"
    )
    return FallbackField(
        level=DegradationLevel.COARSE_FEM,
        nodal_displacement=nodal_fine,
        grid_displacement=grid,
        deformed_mri=deformed,
        simulation=simulation,
        note=note,
    )


def previous_field_fallback(previous) -> FallbackField:
    """Re-apply the previous scan's deformation field.

    ``previous`` is the prior scan's :class:`IntraoperativeResult`
    (duck-typed: ``nodal_displacement`` / ``grid_displacement`` /
    ``deformed_mri``). Arrays are copied so a later mutation of either
    result cannot corrupt the other.
    """
    if previous is None:
        raise ValidationError("previous-field fallback requires a previous scan")
    nodal = np.array(previous.nodal_displacement, dtype=float, copy=True)
    grid = np.array(previous.grid_displacement, dtype=float, copy=True)
    return FallbackField(
        level=DegradationLevel.PREVIOUS_FIELD,
        nodal_displacement=nodal,
        grid_displacement=grid,
        deformed_mri=previous.deformed_mri,
        simulation=synthetic_simulation(nodal),
        note="previous-field fallback: re-applied the last good deformation field",
    )


def rigid_only_fallback(mri: ImageVolume, n_nodes: int) -> FallbackField:
    """Zero volumetric deformation: rigid registration only.

    The deformed volume *is* the preoperative MRI (any rigid alignment
    lives in the result's ``rigid`` transform, as before nonrigid
    compensation existed).
    """
    nodal = np.zeros((int(n_nodes), 3))
    grid = np.zeros((*mri.shape, 3))
    return FallbackField(
        level=DegradationLevel.RIGID_ONLY,
        nodal_displacement=nodal,
        grid_displacement=grid,
        deformed_mri=mri,
        simulation=synthetic_simulation(nodal),
        note="rigid-only fallback: zero volumetric deformation",
    )
