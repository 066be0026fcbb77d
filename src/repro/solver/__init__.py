"""Iterative Krylov solvers and preconditioners.

The paper solves the assembled elasticity system with PETSc's GMRES and
block-Jacobi preconditioning; this subpackage re-implements both from
scratch (restarted GMRES via Arnoldi + Givens rotations, block-Jacobi
with per-block sparse LU), plus conjugate gradients as an SPD
cross-check, against a minimal operator interface that both serial CSR
matrices and the distributed row-block operators satisfy.
"""

from repro.solver.cg import conjugate_gradient
from repro.solver.gmres import DEFAULT_SOLVER_TOL, GMRESResult, gmres
from repro.solver.operator import AsOperator, LinearOperator, MatrixOperator
from repro.solver.preconditioner import (
    BlockJacobiPreconditioner,
    IdentityPreconditioner,
    JacobiPreconditioner,
    contiguous_block_ranges,
    factor_blocks,
)
from repro.solver.schwarz import RestrictedAdditiveSchwarz

__all__ = [
    "AsOperator",
    "BlockJacobiPreconditioner",
    "DEFAULT_SOLVER_TOL",
    "GMRESResult",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "LinearOperator",
    "MatrixOperator",
    "RestrictedAdditiveSchwarz",
    "conjugate_gradient",
    "contiguous_block_ranges",
    "factor_blocks",
    "gmres",
]
