"""Dirichlet boundary conditions by substitution.

The paper applies the active-surface displacements by "substituting
known values for equations in the original system, reducing the number
of unknowns that must be solved for" — i.e. elimination: the fixed DOFs
are removed, and their coupling columns move to the right-hand side.
The same elimination is what creates the paper's *solver* load
imbalance, because "the distribution of surface displacements is not
equal across CPUs"; :func:`eliminated_per_node` exposes the counts the
machine model needs to reproduce that effect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.util import ShapeError, ValidationError


@dataclass
class DirichletBC:
    """Prescribed displacements at mesh nodes.

    Parameters
    ----------
    node_ids:
        ``(k,)`` mesh node indices.
    displacements:
        ``(k, 3)`` prescribed displacement vectors (mm).
    """

    node_ids: np.ndarray
    displacements: np.ndarray

    def __post_init__(self) -> None:
        self.node_ids = np.asarray(self.node_ids, dtype=np.intp)
        self.displacements = np.asarray(self.displacements, dtype=float)
        if self.node_ids.ndim != 1:
            raise ShapeError(f"node_ids must be 1-D, got {self.node_ids.shape}")
        if self.displacements.shape != (len(self.node_ids), 3):
            raise ShapeError(
                f"displacements must be ({len(self.node_ids)}, 3), got {self.displacements.shape}"
            )
        if len(np.unique(self.node_ids)) != len(self.node_ids):
            raise ValidationError("duplicate node ids in Dirichlet BC")

    def dof_indices(self) -> np.ndarray:
        """Fixed global DOF indices, ``(3k,)``, node-major order."""
        return (3 * self.node_ids[:, None] + np.arange(3)[None, :]).ravel()

    def dof_values(self) -> np.ndarray:
        return self.displacements.ravel()


@dataclass
class ReducedSystem:
    """The reduced (free-DOF) linear system after elimination.

    Attributes
    ----------
    matrix:
        ``(n_free, n_free)`` CSR stiffness of the free DOFs.
    rhs:
        ``(n_free,)`` right-hand side including BC coupling terms.
    free_dofs / fixed_dofs:
        Global DOF index arrays partitioning the original numbering.
    fixed_values:
        Prescribed values for the fixed DOFs.
    """

    matrix: sparse.csr_matrix
    rhs: np.ndarray
    free_dofs: np.ndarray
    fixed_dofs: np.ndarray
    fixed_values: np.ndarray

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)

    @property
    def n_total(self) -> int:
        return len(self.free_dofs) + len(self.fixed_dofs)

    def expand(self, reduced_solution: np.ndarray) -> np.ndarray:
        """Scatter the free-DOF solution back to the full DOF vector."""
        if reduced_solution.shape != (self.n_free,):
            raise ShapeError(
                f"reduced solution must be ({self.n_free},), got {reduced_solution.shape}"
            )
        full = np.empty(self.n_total)
        full[self.free_dofs] = reduced_solution
        full[self.fixed_dofs] = self.fixed_values
        return full


def partition_free_fixed(n: int, fixed: np.ndarray) -> np.ndarray:
    """Free (unconstrained) DOF indices of an ``n``-DOF system.

    ``fixed`` is the array of prescribed DOF indices (any order); the
    free set comes back sorted. :func:`eliminate_fixed` splits the matrix
    by it, for the one-shot elimination below and for
    :class:`repro.fem.context.ReductionContext`, which caches the split
    across scans.
    """
    fixed = np.asarray(fixed, dtype=np.intp)
    if len(fixed) and (fixed.min() < 0 or fixed.max() >= n):
        raise ValidationError("BC DOF index out of range")
    is_fixed = np.zeros(n, dtype=bool)
    is_fixed[fixed] = True
    return np.flatnonzero(~is_fixed)


def eliminate_fixed(
    matrix: sparse.spmatrix, fixed: np.ndarray
) -> tuple[np.ndarray, sparse.csr_matrix, sparse.csc_matrix]:
    """Split ``K`` by a prescribed DOF set: ``(free, K[free, free], K[free, fixed])``.

    ``free`` is sorted (:func:`partition_free_fixed`); the free-DOF block
    is CSR and the coupling block CSC, its columns in ``fixed``'s order.
    The free rows are selected from the CSR once, and that row block is
    column-indexed into both blocks, with no CSC copy of ``K``.
    """
    free = partition_free_fixed(matrix.shape[0], fixed)
    rows = matrix.tocsr()[free]
    return free, rows[:, free], rows[:, fixed].tocsc()


def apply_dirichlet(
    matrix: sparse.csr_matrix,
    rhs: np.ndarray,
    bc: DirichletBC,
) -> ReducedSystem:
    """Eliminate prescribed DOFs from ``K u = f``.

    Returns the reduced system over free DOFs with
    ``f_free - K[free, fixed] @ u_fixed`` as its right-hand side.
    """
    n = matrix.shape[0]
    if rhs.shape != (n,):
        raise ShapeError(f"rhs must be ({n},), got {rhs.shape}")
    fixed = bc.dof_indices()
    values = bc.dof_values()
    free, reduced, coupling = eliminate_fixed(matrix, fixed)
    reduced_rhs = rhs[free] - coupling @ values
    return ReducedSystem(
        matrix=reduced,
        rhs=np.asarray(reduced_rhs).ravel(),
        free_dofs=free,
        fixed_dofs=fixed,
        fixed_values=values,
    )


def eliminated_per_node(n_nodes: int, bc: DirichletBC) -> np.ndarray:
    """Number of eliminated DOFs per node (0 or 3 for displacement BCs).

    Used by the machine model: ranks whose nodes carry many prescribed
    displacements end up with fewer unknowns than their peers, producing
    the solve-phase imbalance the paper reports.
    """
    out = np.zeros(n_nodes, dtype=np.int64)
    out[bc.node_ids] = 3
    return out
