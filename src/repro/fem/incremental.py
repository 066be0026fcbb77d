"""Incremental large-deformation simulation.

The paper's model is small-strain linear elasticity, adequate for the
~5-15 mm shifts it measures. Its Discussion anticipates "a more
sophisticated model"; the standard first step beyond linearity is
*incremental loading with geometry updates*: the prescribed surface
displacement is applied in steps, the mesh geometry is updated after
each step, and the stiffness is reassembled on the deformed
configuration. For small loads this converges to the linear solution;
for large rotational deformations it avoids the linear model's spurious
volume growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fem.assembly import assemble_stiffness
from repro.fem.bc import DirichletBC, apply_dirichlet
from repro.fem.material import BRAIN_HOMOGENEOUS, MaterialMap
from repro.mesh.tetra import TetrahedralMesh
from repro.solver.gmres import DEFAULT_SOLVER_TOL, GMRESResult, gmres
from repro.solver.preconditioner import BlockJacobiPreconditioner
from repro.util import ValidationError


@dataclass
class IncrementalResult:
    """Outcome of an incremental simulation.

    Attributes
    ----------
    displacement:
        Total accumulated ``(n_nodes, 3)`` displacement (mm).
    steps:
        Number of load increments applied.
    step_solver_iterations:
        GMRES iterations per increment.
    final_mesh:
        The mesh in its deformed configuration.
    """

    displacement: np.ndarray
    steps: int
    step_solver_iterations: list[int] = field(default_factory=list)
    final_mesh: TetrahedralMesh | None = None


def simulate_incremental(
    mesh: TetrahedralMesh,
    bc: DirichletBC,
    n_steps: int = 5,
    materials: MaterialMap = BRAIN_HOMOGENEOUS,
    tol: float = DEFAULT_SOLVER_TOL,
    restart: int = 30,
    max_iter: int = 3000,
    n_blocks: int = 1,
) -> IncrementalResult:
    """Apply surface displacements in increments with geometry updates.

    Parameters
    ----------
    mesh:
        Reference-configuration mesh (not modified).
    bc:
        Total prescribed surface displacements.
    n_steps:
        Number of equal load increments. ``1`` reproduces the linear
        solution exactly.
    """
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    current = TetrahedralMesh(mesh.nodes.copy(), mesh.elements, mesh.materials.copy())
    total = np.zeros((mesh.n_nodes, 3))
    step_bc_disp = bc.displacements / float(n_steps)
    iterations: list[int] = []

    for _ in range(n_steps):
        stiffness = assemble_stiffness(current, materials)
        step_bc = DirichletBC(bc.node_ids, step_bc_disp)
        reduced = apply_dirichlet(stiffness, np.zeros(current.n_dof), step_bc)
        if reduced.n_free:
            n = reduced.n_free
            bounds = np.linspace(0, n, min(n_blocks, n) + 1).astype(int)
            pre = BlockJacobiPreconditioner(
                reduced.matrix, list(zip(bounds[:-1], bounds[1:]))
            )
            result: GMRESResult = gmres(
                reduced.matrix,
                reduced.rhs,
                preconditioner=pre,
                tol=tol,
                restart=restart,
                max_iter=max_iter,
            )
            iterations.append(result.iterations)
            step_u = reduced.expand(result.x).reshape(-1, 3)
        else:
            iterations.append(0)
            step_u = reduced.expand(np.zeros(0)).reshape(-1, 3)
        total += step_u
        current = TetrahedralMesh(
            current.nodes + step_u, current.elements, current.materials
        )
        current.validate()

    return IncrementalResult(
        displacement=total,
        steps=n_steps,
        step_solver_iterations=iterations,
        final_mesh=current,
    )
