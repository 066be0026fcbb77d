"""The biomechanical brain model facade.

Ties the FEM pieces together the way the paper's simulation stage does:
assemble the stiffness of the meshed brain, impose the active-surface
displacements as Dirichlet boundary conditions, solve the reduced
system, and return the volumetric displacement field "inside and outside
the surfaces". The paper's solver — GMRES with block Jacobi on P CPUs —
is :func:`repro.parallel.simulate_parallel`. This serial model solves the
same reduced system directly, with one sparse LU, and takes a body
force: gravity prediction, incremental loading and the analytic
patch-test oracle run it. The scan pipeline does not — at the paper's
size the LU takes 82.6–90.9 s and ≈ 1.8 GB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from repro.fem.assembly import assemble_load_vector, assemble_stiffness
from repro.fem.bc import DirichletBC, apply_dirichlet
from repro.fem.material import BRAIN_HOMOGENEOUS, MaterialMap
from repro.mesh.tetra import TetrahedralMesh
from repro.obs.trace import get_tracer
from repro.solver.gmres import GMRESResult
from repro.util import Timer, ValidationError


@dataclass
class SimulationResult:
    """Outcome of a biomechanical deformation simulation.

    Attributes
    ----------
    displacement:
        ``(n_nodes, 3)`` displacement of every mesh node (mm).
    solver:
        Record of the direct solve, shaped like a Krylov one: one
        iteration, the unpreconditioned residual ``||b - A x||``, and
        ``converged`` when that residual is finite.
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
    """Linear-elastic FEM of the (meshed) brain, solved with one sparse LU.

    Parameters
    ----------
    mesh:
        Tetrahedral brain mesh with material labels.
    materials:
        Label -> material map; defaults to the paper's homogeneous brain.
    """

    mesh: TetrahedralMesh
    materials: MaterialMap = field(default_factory=lambda: BRAIN_HOMOGENEOUS)

    def simulate(
        self, bc: DirichletBC, body_force: np.ndarray | None = None
    ) -> SimulationResult:
        """Compute the volumetric deformation implied by surface displacements.

        "The key concept is to apply forces to the volumetric model that
        will produce the same displacement field at the surfaces as was
        obtained with the active surface algorithm" — realized, as in the
        paper, by fixing the surface displacements and solving for the
        interior. ``body_force`` is a uniform ``(3,)`` force density
        (N/mm^3) or ``None``.
        """
        if len(bc.node_ids) == 0:
            raise ValidationError("simulation requires at least one prescribed node")
        tracer = get_tracer()
        assembly_timer = Timer("assembly")
        with tracer.span("assembly", kind="fem"), assembly_timer:
            with tracer.span("assemble stiffness", kind="fem"):
                stiffness = assemble_stiffness(self.mesh, self.materials)
                load = assemble_load_vector(self.mesh, body_force)
            with tracer.span("bc application", kind="fem"):
                reduced = apply_dirichlet(stiffness, load, bc)

        solve_timer = Timer("solve")
        with tracer.span(
            "solve", kind="fem", solver="direct", n_free=reduced.n_free
        ), solve_timer:
            x = splu(reduced.matrix.tocsc()).solve(reduced.rhs)
            residual = float(np.linalg.norm(reduced.matrix @ x - reduced.rhs))
        result = GMRESResult(
            x=x,
            converged=bool(np.isfinite(residual)),
            iterations=1,
            restarts=0,
            residual_norm=residual,
            history=[residual],
        )
        return SimulationResult(
            displacement=reduced.expand(x).reshape(-1, 3),
            solver=result,
            n_equations=reduced.n_free,
            n_dof_total=self.mesh.n_dof,
            assembly_seconds=assembly_timer.elapsed,
            solve_seconds=solve_timer.elapsed,
        )
