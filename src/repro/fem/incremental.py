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

from dataclasses import dataclass

import numpy as np

from repro.fem.bc import DirichletBC
from repro.fem.material import BRAIN_HOMOGENEOUS, MaterialMap
from repro.fem.model import BiomechanicalModel
from repro.mesh.tetra import TetrahedralMesh
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
    final_mesh:
        The mesh in its deformed configuration.
    """

    displacement: np.ndarray
    steps: int
    final_mesh: TetrahedralMesh | None = None


def simulate_incremental(
    mesh: TetrahedralMesh,
    bc: DirichletBC,
    n_steps: int = 5,
    materials: MaterialMap = BRAIN_HOMOGENEOUS,
) -> IncrementalResult:
    """Apply surface displacements in increments with geometry updates.

    Each increment is one :class:`repro.fem.BiomechanicalModel` solve on
    the current (deformed) mesh.

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
    step_bc = DirichletBC(bc.node_ids, bc.displacements / float(n_steps))

    for _ in range(n_steps):
        step_u = BiomechanicalModel(current, materials).simulate(step_bc).displacement
        total += step_u
        current = TetrahedralMesh(
            current.nodes + step_u, current.elements, current.materials
        )
        current.validate()

    return IncrementalResult(displacement=total, steps=n_steps, final_mesh=current)
