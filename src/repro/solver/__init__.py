"""Iterative Krylov solvers and preconditioners.

The paper solves the assembled elasticity system with PETSc's GMRES and
block-Jacobi preconditioning; this subpackage re-implements both from
scratch: restarted GMRES via Arnoldi + Givens rotations, plus conjugate
gradients (the pipeline's solve: its system and preconditioner are SPD),
against a minimal operator interface that both serial CSR matrices and
the distributed row-block operators satisfy, the block factorization
the block-Jacobi preconditioner uses and the block FSAI the
pipeline's preconditioner uses at every rank count. Block Jacobi itself is
:class:`repro.parallel.solver.DistributedBlockJacobi`.
"""

from repro.solver.cg import conjugate_gradient
from repro.solver.gmres import gmres
from repro.solver.krylov import DEFAULT_SOLVER_TOL, KrylovResult
from repro.solver.operator import AsOperator, LinearOperator, MatrixOperator
from repro.solver.preconditioner import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    block_fsai,
    factor_blocks,
)

__all__ = [
    "AsOperator",
    "DEFAULT_SOLVER_TOL",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "KrylovResult",
    "LinearOperator",
    "MatrixOperator",
    "block_fsai",
    "conjugate_gradient",
    "factor_blocks",
    "gmres",
]
