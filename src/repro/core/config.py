"""Pipeline configuration.

One dataclass gathers every tunable of the intraoperative pipeline with
defaults matching the paper's clinical setup (homogeneous brain model),
except the solve: CG with a block FSAI, balanced on compact
coordinate-bisection subdomains by a rigid-body coarse space (the
paper's GMRES + block Jacobi on equal-node-count slabs is ``"block"``
with ``simulate_parallel``'s defaults). ``gmres_restart`` is read by
GMRES only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fem.material import BRAIN_HOMOGENEOUS, MaterialMap
from repro.imaging.phantom import Tissue
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import ResiliencePolicy
from repro.solver.gmres import DEFAULT_SOLVER_TOL
from repro.util import ValidationError


@dataclass
class PipelineConfig:
    """Settings for :class:`repro.core.IntraoperativePipeline`.

    Parameters
    ----------
    brain_labels:
        Tissue classes treated as brain (meshed and deformed).
    segmentation_classes:
        Classes the intraoperative k-NN distinguishes.
    mesh_cell_mm:
        Tetrahedral cell edge length; ``target_mesh_nodes`` overrides it
        when set (the scaling experiments target the paper's 25,837
        nodes / 77,511 equations).
    materials:
        FEM material map (paper default: homogeneous brain).
    n_ranks:
        Virtual CPU count for the parallel simulation (1 = serial path).
    partitioner:
        Node decomposition for the parallel simulation (a
        :data:`repro.parallel.simulation.PARTITIONERS` name). The default
        ``"coordinate_bisection"`` cuts about a third of the edges the
        paper's ``"block"`` slabs cut, and the pipeline's coarse space
        pays only on compact subdomains (DESIGN.md "Compact subdomains
        and a rigid-body coarse space").
    resilience:
        The intraoperative resilience layer's settings
        (:class:`repro.resilience.ResiliencePolicy`): the master switch
        and the graceful-degradation bounds. Enabled by default;
        ``resilience.enabled = False`` is the fail-fast configuration
        of the same guarded runner — one attempt per stage, the
        ladder's first rung only, no degradation, non-finite input
        rejected, every error raised.
    fault_plan:
        Optional :class:`repro.resilience.FaultPlan` of deterministic
        injected faults (testing/drills); ``None`` injects nothing.
    """

    # Tissue model
    brain_labels: tuple[int, ...] = (
        int(Tissue.BRAIN),
        int(Tissue.VENTRICLE),
        int(Tissue.FALX),
        int(Tissue.TUMOR),
    )
    intraop_brain_labels: tuple[int, ...] = (
        int(Tissue.BRAIN),
        int(Tissue.VENTRICLE),
        int(Tissue.FALX),
        int(Tissue.TUMOR),
        int(Tissue.RESECTION),
    )
    segmentation_classes: tuple[int, ...] = (
        int(Tissue.AIR),
        int(Tissue.SKIN),
        int(Tissue.SKULL),
        int(Tissue.CSF),
        int(Tissue.BRAIN),
        int(Tissue.VENTRICLE),
        int(Tissue.RESECTION),
    )

    # Rigid registration
    rigid_levels: int = 2
    rigid_max_iter: int = 3
    rigid_samples: int = 12000

    # Localization / classification
    localization_cap_mm: float = 15.0
    knn_k: int = 5
    prototypes_per_class: int = 60

    # Mesh
    mesh_cell_mm: float = 5.0
    target_mesh_nodes: int | None = None

    # Active surface
    surface_cap_mm: float = 20.0
    surface_iterations: int = 250
    surface_step: float = 0.35
    surface_smoothing: float = 0.4

    # FEM / solver
    materials: MaterialMap = field(default_factory=lambda: BRAIN_HOMOGENEOUS)
    solver_tol: float = DEFAULT_SOLVER_TOL
    gmres_restart: int = 30
    n_ranks: int = 1
    partitioner: str = "coordinate_bisection"

    # Resilience / fault injection
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    fault_plan: FaultPlan | None = None

    seed: int = 0

    def __post_init__(self) -> None:
        if not self.brain_labels:
            raise ValidationError("brain_labels must not be empty")
        if self.mesh_cell_mm <= 0:
            raise ValidationError("mesh_cell_mm must be > 0")
        if self.n_ranks < 1:
            raise ValidationError("n_ranks must be >= 1")
