"""Preconditioners for the Krylov solvers.

Block Jacobi is the paper's choice: each rank's contiguous row block of
the reduced system is factorized independently (sparse LU), so applying
the preconditioner needs no communication — the property that makes it
the default for distributed Krylov methods in PETSc.

Application is a hot-path kernel: the block-wise solve runs through the
active compute backend (:mod:`repro.backend`), and every preconditioner
reuses one preallocated output buffer across applications (tens to
hundreds per Krylov solve), so the apply path allocates nothing. Callers
may freely overwrite the returned vector but must not hold it across a
subsequent ``solve`` call.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from repro.backend import get_backend
from repro.util import ShapeError, ValidationError


def contiguous_block_ranges(n: int, n_blocks: int) -> list[tuple[int, int]]:
    """Equal contiguous half-open row ranges tiling ``[0, n)``.

    The canonical block layout of the serial block-Jacobi path; shared
    with the solve-context machinery so cached factorizations and fresh
    ones always agree on the decomposition.
    """
    bounds = np.linspace(0, n, min(n_blocks, n) + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(len(bounds) - 1)]


#: ILUTP drop threshold of :func:`incomplete_factor`. At ``1e-2`` the
#: threshold, not SuperLU's fill cap, decides what a block keeps: the
#: factor is ~1.3-1.7x the block's own nonzeros and GMRES needs fewer
#: iterations than with the tighter ``1e-4`` pinned at a cap of 3 (see
#: DESIGN.md substitutions and the EXPERIMENTS.md sweep).
ILU_DROP_TOL = 1e-2
#: Fill cap (factor nonzeros / block nonzeros) — a safety bound that
#: does not bind on the FEM blocks at :data:`ILU_DROP_TOL`.
ILU_FILL_FACTOR = 10.0


def incomplete_factor(block: sparse.csc_matrix) -> spla.SuperLU:
    """Threshold ILU (SuperLU ILUTP) of one diagonal block / subdomain (CSC).

    The one incomplete factorization behind every block preconditioner
    (:class:`repro.parallel.solver.DistributedBlockJacobi`,
    :class:`repro.parallel.solver.DistributedRAS`,
    :class:`repro.solver.schwarz.RestrictedAdditiveSchwarz`).
    """
    return spla.spilu(block, drop_tol=ILU_DROP_TOL, fill_factor=ILU_FILL_FACTOR)


class IdentityPreconditioner:
    """No-op preconditioner (plain GMRES)."""

    def __init__(self, n: int):
        self.shape = (n, n)

    def solve(self, r: np.ndarray) -> np.ndarray:
        return np.asarray(r, dtype=float).copy()


class JacobiPreconditioner:
    """Point Jacobi: divide by the matrix diagonal."""

    def __init__(self, matrix: sparse.spmatrix):
        diag = np.asarray(matrix.diagonal(), dtype=float)
        if np.any(diag == 0):
            raise ValidationError("matrix has zero diagonal entries; Jacobi undefined")
        self._inv_diag = 1.0 / diag
        self.shape = matrix.shape

    def solve(self, r: np.ndarray) -> np.ndarray:
        return r * self._inv_diag


class BlockJacobiPreconditioner:
    """Block Jacobi over contiguous row blocks with per-block sparse LU.

    Parameters
    ----------
    matrix:
        Square sparse matrix (CSR/CSC).
    block_ranges:
        Sequence of ``(start, stop)`` half-open row ranges covering
        ``[0, n)`` without gaps or overlap — one block per (virtual)
        rank, matching the row distribution of the parallel solve.
    """

    def __init__(self, matrix: sparse.spmatrix, block_ranges):
        n = matrix.shape[0]
        if matrix.shape[0] != matrix.shape[1]:
            raise ShapeError(f"matrix must be square, got {matrix.shape}")
        ranges = [(int(a), int(b)) for a, b in block_ranges]
        expected = 0
        for a, b in ranges:
            if a != expected or b <= a:
                raise ValidationError(
                    f"block ranges must tile [0, n) contiguously; got {ranges}"
                )
            expected = b
        if expected != n:
            raise ValidationError(f"block ranges cover [0, {expected}), matrix has {n} rows")
        csc = matrix.tocsc()
        self._ranges = ranges
        self._factors = []
        for a, b in ranges:
            block = csc[a:b, a:b].tocsc()
            self._factors.append(spla.splu(block))
        self.shape = matrix.shape
        # Backend-prepared block application + reused apply buffer: the
        # solve path performs no allocation (see module docstring).
        self._apply = get_backend().prepare_block_apply(ranges, self._factors)
        self._out = np.empty(n)

    @property
    def n_blocks(self) -> int:
        return len(self._ranges)

    def solve(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return self._apply(r, self._out)
