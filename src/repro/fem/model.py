"""The biomechanical brain model facade.

Ties the FEM pieces together the way the paper's simulation stage does:
assemble the stiffness of the meshed brain, impose the active-surface
displacements as Dirichlet boundary conditions, solve the reduced system
with GMRES + block-Jacobi, and return the volumetric displacement field
"inside and outside the surfaces".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fem.assembly import assemble_load_vector, assemble_stiffness
from repro.fem.bc import DirichletBC, apply_dirichlet
from repro.fem.context import AssemblyContext, ReductionContext, SolveContext
from repro.fem.material import BRAIN_HOMOGENEOUS, MaterialMap
from repro.mesh.tetra import TetrahedralMesh
from repro.obs.trace import get_tracer
from repro.solver.cg import conjugate_gradient
from repro.solver.gmres import DEFAULT_SOLVER_TOL, GMRESResult, gmres
from repro.solver.preconditioner import (
    BlockJacobiPreconditioner,
    IdentityPreconditioner,
    JacobiPreconditioner,
    contiguous_block_ranges,
)
from repro.util import Timer, ValidationError


@dataclass
class SimulationResult:
    """Outcome of a biomechanical deformation simulation.

    Attributes
    ----------
    displacement:
        ``(n_nodes, 3)`` displacement of every mesh node (mm).
    solver:
        Convergence record of the Krylov solve.
    n_equations:
        Size of the reduced system actually solved (the paper's
        "77,511 equations" counts DOFs *before* boundary elimination:
        see ``n_dof_total``).
    n_dof_total:
        3 x n_nodes, the paper's headline equation count.
    assembly_seconds / solve_seconds:
        Measured wall-clock on this machine (the year-2000 virtual times
        come from :mod:`repro.machines`).
    """

    displacement: np.ndarray
    solver: GMRESResult
    n_equations: int
    n_dof_total: int
    assembly_seconds: float
    solve_seconds: float


@dataclass
class BiomechanicalModel:
    """Linear-elastic FEM of the (meshed) brain.

    Parameters
    ----------
    mesh:
        Tetrahedral brain mesh with material labels.
    materials:
        Label -> material map; defaults to the paper's homogeneous brain.
    solver:
        ``"gmres"`` (paper configuration) or ``"cg"``.
    preconditioner:
        ``"block_jacobi"`` (paper configuration), ``"jacobi"`` or
        ``"none"``.
    n_blocks:
        Number of block-Jacobi blocks (the virtual CPU count; the
        preconditioner — and hence the iteration count — depends on the
        decomposition exactly as in PETSc).
    """

    mesh: TetrahedralMesh
    materials: MaterialMap = field(default_factory=lambda: BRAIN_HOMOGENEOUS)
    solver: str = "gmres"
    preconditioner: str = "block_jacobi"
    n_blocks: int = 1
    tol: float = DEFAULT_SOLVER_TOL
    restart: int = 30
    max_iter: int = 3000

    def __post_init__(self) -> None:
        if self.solver not in ("gmres", "cg"):
            raise ValidationError(f"unknown solver {self.solver!r}")
        if self.preconditioner not in ("block_jacobi", "jacobi", "none"):
            raise ValidationError(f"unknown preconditioner {self.preconditioner!r}")
        if self.n_blocks < 1:
            raise ValidationError(f"n_blocks must be >= 1, got {self.n_blocks}")

    def _block_ranges(self, n: int) -> list[tuple[int, int]]:
        return contiguous_block_ranges(n, self.n_blocks)

    def _make_preconditioner(self, reduced):
        if self.preconditioner == "block_jacobi":
            return BlockJacobiPreconditioner(
                reduced.matrix, self._block_ranges(reduced.n_free)
            )
        if self.preconditioner == "jacobi":
            return JacobiPreconditioner(reduced.matrix)
        return IdentityPreconditioner(reduced.n_free)

    def simulate(
        self,
        bc: DirichletBC,
        body_force: np.ndarray | None = None,
        context: SolveContext | None = None,
    ) -> SimulationResult:
        """Compute the volumetric deformation implied by surface displacements.

        "The key concept is to apply forces to the volumetric model that
        will produce the same displacement field at the surfaces as was
        obtained with the active surface algorithm" — realized, as in the
        paper, by fixing the surface displacements and solving for the
        interior.

        ``context`` carries the scan-invariant state (assembled matrix,
        elimination structure, block-Jacobi factors) across repeated
        calls with the same mesh/materials/constrained nodes. The Krylov
        solve always starts from zero.
        """
        if len(bc.node_ids) == 0:
            raise ValidationError("simulation requires at least one prescribed node")
        cache_hit = False
        if context is not None:
            fp = SolveContext.fingerprint(
                self.mesh,
                self.materials,
                bc.node_ids,
                layer="serial",
                solver=self.solver,
                preconditioner=self.preconditioner,
                n_blocks=self.n_blocks,
            )
            cache_hit = context.prepare(fp)
        tracer = get_tracer()
        assembly_timer = Timer("assembly")
        with tracer.span("assembly", kind="fem", cache_hit=cache_hit), assembly_timer:
            if context is None:
                with tracer.span("assemble stiffness", kind="fem"):
                    stiffness = assemble_stiffness(self.mesh, self.materials)
                    load = assemble_load_vector(self.mesh, body_force)
                with tracer.span("bc application", kind="fem"):
                    reduced = apply_dirichlet(stiffness, load, bc)
            else:
                if not cache_hit:
                    context.assembly = AssemblyContext(self.mesh, self.materials)
                    context.reduction = ReductionContext(
                        context.assembly.matrix(), bc.dof_indices()
                    )
                load = (
                    assemble_load_vector(self.mesh, body_force)
                    if body_force is not None
                    else None
                )
                reduced = context.reduction.reduce(bc.dof_values(), load)

        solve_timer = Timer("solve")
        with tracer.span(
            "solve", kind="fem", solver=self.solver, n_free=reduced.n_free
        ), solve_timer:
            if cache_hit and "preconditioner" in context.slots:
                pre = context.slots["preconditioner"]
            else:
                with tracer.span(
                    "preconditioner setup",
                    kind="solver",
                    preconditioner=self.preconditioner,
                    n_blocks=self.n_blocks,
                ):
                    pre = self._make_preconditioner(reduced)
                if context is not None:
                    context.slots["preconditioner"] = pre
            if self.solver == "gmres":
                result = gmres(
                    reduced.matrix,
                    reduced.rhs,
                    preconditioner=pre,
                    tol=self.tol,
                    restart=self.restart,
                    max_iter=self.max_iter,
                )
            else:
                result = conjugate_gradient(
                    reduced.matrix,
                    reduced.rhs,
                    preconditioner=pre,
                    tol=self.tol,
                    max_iter=self.max_iter,
                )
        full = reduced.expand(result.x)
        return SimulationResult(
            displacement=full.reshape(-1, 3),
            solver=result,
            n_equations=reduced.n_free,
            n_dof_total=self.mesh.n_dof,
            assembly_seconds=assembly_timer.elapsed,
            solve_seconds=solve_timer.elapsed,
        )
