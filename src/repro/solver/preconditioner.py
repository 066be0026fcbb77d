"""Preconditioners for the Krylov solvers, and the block factorization.

Block Jacobi is the paper's choice: each rank's contiguous row block of
the reduced system is factorized independently, so applying the
preconditioner needs no communication — the property that makes it the
default for distributed Krylov methods in PETSc. It is
:class:`repro.parallel.solver.DistributedBlockJacobi`; a serial caller
builds it over :meth:`repro.parallel.RowBlockMatrix.from_csr`, which
shares the source matrix's arrays. Independent blocks also factor
independently: :func:`factor_blocks`, which every block preconditioner
calls, factors them side by side on the process's cores.

:class:`IdentityPreconditioner` and :class:`JacobiPreconditioner` are the
generic library solvers' reference preconditioners.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from repro.util import ValidationError


#: ILUTP drop threshold of :func:`incomplete_factor`. At ``1e-2`` the
#: threshold, not SuperLU's fill cap, decides what a block keeps: the
#: factor is ~1.3-1.7x the block's own nonzeros and GMRES needs fewer
#: iterations than with the tighter ``1e-4`` pinned at a cap of 3 (see
#: DESIGN.md substitutions and the EXPERIMENTS.md sweep).
ILU_DROP_TOL = 1e-2
#: Fill cap (factor nonzeros / block nonzeros) — a safety bound that
#: does not bind on the FEM blocks at :data:`ILU_DROP_TOL`: the largest
#: fill any exhibit factors is 2.50x (one 214 k-row block), and its factor
#: is the same at caps 4 and 10. SuperLU sizes its first work arrays from
#: the cap, so a larger one costs memory, not fill (DESIGN.md "Block
#: factorizations on the cores the process has").
ILU_FILL_FACTOR = 4.0


#: Column order SuperLU factors a block in: the block's own. The
#: decomposition numbers each rank's nodes in reverse Cuthill-McKee order
#: (:meth:`repro.parallel.Decomposition.from_partition`), so a block is
#: banded already; on compact subdomains its factor holds about a quarter
#: fewer nonzeros than under SuperLU's default COLAMD column order, at the
#: same GMRES iterations (EXPERIMENTS.md "Compact subdomains").
ILU_COLUMN_ORDER = "NATURAL"


def incomplete_factor(block: sparse.csc_matrix) -> spla.SuperLU:
    """Threshold ILU (SuperLU ILUTP) of one diagonal block / subdomain (CSC).

    The one incomplete factorization behind every block preconditioner
    (:class:`repro.parallel.solver.DistributedBlockJacobi`,
    :class:`repro.parallel.solver.DistributedRAS`), in the
    block's own row order (:data:`ILU_COLUMN_ORDER`).
    """
    return spla.spilu(
        block,
        drop_tol=ILU_DROP_TOL,
        fill_factor=ILU_FILL_FACTOR,
        permc_spec=ILU_COLUMN_ORDER,
    )


_FACTORIZATIONS = {"ilu": incomplete_factor, "lu": spla.splu}


def usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def factor_blocks(blocks: Sequence[sparse.csc_matrix], factorization: str) -> list[spla.SuperLU]:
    """Factor every CSC block (``"ilu"`` or ``"lu"``); the factors in block order.

    The one place a block preconditioner factors. SuperLU's factorization
    releases the GIL for the whole call, so the blocks are factored side
    by side: with ``k = min(len(blocks), usable_cores())`` the calling
    thread and ``k - 1`` helper threads, started here and joined before
    return, each take the next unfactored block in order until none is
    left. With one block or one core it is the plain loop and starts no
    thread. Every factor is the same SuperLU call on the same block
    whichever thread makes it, so the result is bit-identical to the
    loop's. A failing block raises what the loop would have raised: the
    error of the first failing block in order (every block before it was
    taken, so it has finished).
    """
    factor = _FACTORIZATIONS.get(factorization)
    if factor is None:
        raise ValidationError(
            f"unknown factorization {factorization!r}; options: {sorted(_FACTORIZATIONS)}"
        )
    k = min(len(blocks), usable_cores())
    if k <= 1:
        return [factor(block) for block in blocks]
    factors: list[spla.SuperLU | None] = [None] * len(blocks)
    errors: dict[int, Exception] = {}
    lock = threading.Lock()
    next_block = 0

    def drain() -> None:
        # Blocks are taken in order and a block taken is always factored, so
        # every block before a failing one finishes; none is taken after.
        nonlocal next_block
        while True:
            with lock:
                if errors or next_block == len(blocks):
                    return
                i, next_block = next_block, next_block + 1
            try:
                factors[i] = factor(blocks[i])
            except Exception as exc:  # re-raised on the calling thread below
                with lock:
                    errors[i] = exc

    helpers = [threading.Thread(target=drain, name=f"factor_blocks-{t}") for t in range(1, k)]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return factors


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
