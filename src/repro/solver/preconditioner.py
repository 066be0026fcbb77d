"""Preconditioners for the Krylov solvers, and the block factorization.

Block Jacobi is the paper's choice: each rank's contiguous row block of
the reduced system is factorized independently, so applying the
preconditioner needs no communication — the property that makes it the
default for distributed Krylov methods in PETSc. It is
:class:`repro.parallel.solver.DistributedBlockJacobi`; a serial caller
builds it over :meth:`repro.parallel.RowBlockMatrix.from_csr`, which
shares the source matrix's arrays. Independent blocks also factor
independently: :func:`factor_blocks`, which every block preconditioner
calls, factors them side by side on the process's cores. The
pipeline's preconditioner factors nothing: :func:`block_fsai` builds its
factorized sparse approximate inverse at every rank count.

:class:`IdentityPreconditioner` and :class:`JacobiPreconditioner` are the
generic library solvers' reference preconditioners.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Sequence
from typing import TypeVar

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from repro.util import ShapeError, ValidationError

T = TypeVar("T")
R = TypeVar("R")


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
    """Threshold ILU (SuperLU ILUTP) of one diagonal block (CSC).

    The one incomplete factorization behind block Jacobi
    (:class:`repro.parallel.solver.DistributedBlockJacobi`), in the
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


def side_by_side(work: Callable[[T], R], blocks: Sequence[T]) -> list[R]:
    """``[work(block) for block in blocks]``, the blocks taken side by side.

    The one place a block preconditioner's set-up uses threads. With
    ``k = min(len(blocks), usable_cores())`` the calling thread and
    ``k - 1`` helper threads, started here and joined before return, each
    take the next block in order until none is left; with one block or one
    core it is the plain loop and starts no thread. ``work`` must give the
    same result whichever thread calls it (SuperLU's factorization and
    numpy's batched dense solves release the GIL), so the result is the
    loop's. A failing block raises what the loop would have raised: the
    error of the first failing block in order (every block before it was
    taken, so it has finished).
    """
    k = min(len(blocks), usable_cores())
    if k <= 1:
        return [work(block) for block in blocks]
    results: list[R | None] = [None] * len(blocks)
    errors: dict[int, Exception] = {}
    lock = threading.Lock()
    next_block = 0

    def drain() -> None:
        # Blocks are taken in order and a block taken is always finished, so
        # every block before a failing one finishes; none is taken after.
        nonlocal next_block
        while True:
            with lock:
                if errors or next_block == len(blocks):
                    return
                i, next_block = next_block, next_block + 1
            try:
                results[i] = work(blocks[i])
            except Exception as exc:  # re-raised on the calling thread below
                with lock:
                    errors[i] = exc

    helpers = [threading.Thread(target=drain, name=f"side_by_side-{t}") for t in range(1, k)]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def factor_blocks(blocks: Sequence[sparse.csc_matrix], factorization: str) -> list[spla.SuperLU]:
    """Factor every CSC block (``"ilu"`` or ``"lu"``); the factors in block order.

    The one place a block preconditioner factors, :func:`side_by_side`:
    SuperLU's factorization releases the GIL for the whole call, and every
    factor is the same SuperLU call on the same block whichever thread
    makes it, so the result is bit-identical to the one-after-another loop.
    """
    factor = _FACTORIZATIONS.get(factorization)
    if factor is None:
        raise ValidationError(
            f"unknown factorization {factorization!r}; options: {sorted(_FACTORIZATIONS)}"
        )
    return side_by_side(factor, blocks)


#: Doubles one batched FSAI solve may stack (dense node-pattern matrices):
#: the nodes of one pattern size are solved in chunks of at most this many
#: entries, 32 MB, so the set-up's peak does not grow with the rank's size.
FSAI_CHUNK_DOUBLES = 1 << 22


def block_fsai(block: sparse.csr_matrix) -> tuple[sparse.csr_matrix, float]:
    """Block FSAI factor ``G`` of one SPD block on 3x3 node blocks, and its flops.

    Rows ``3i .. 3i + 2`` are node ``i``'s three DOFs. Node ``i``'s pattern
    ``P_i`` is its neighbours in the block's node graph numbered at or
    before it, with ``i`` last; ``G``'s rows for ``i`` are the last block
    row of ``L^-1``, where ``L L^T = A[P_i, P_i]``. So ``G A G^T`` has
    identity 3x3 diagonal blocks and ``G^T G`` is an SPD approximate
    inverse of ``A``, applied as two sparse products.

    Nodes are grouped by ``|P_i|``: per size one batched dense solve
    ``A[P_i, P_i] X = E`` (``E`` the last three columns of the identity),
    then ``G_i = C^T X^T`` with ``C C^T = (E^T X)^-1``, the last diagonal
    block of ``L``. The flops returned are that work, ``2/3 (3s)^3`` for
    the factorization and ``6 (3s)^2`` for the three right-hand sides
    per node.
    """
    n = block.shape[0]
    if block.shape != (n, n) or n % 3:
        raise ShapeError(f"block must be square in whole node triples, got {block.shape}")
    m = n // 3
    if m == 0:
        return sparse.csr_matrix((0, 0)), 0.0
    nodes = block.tobsr(blocksize=(3, 3))
    nodes.sort_indices()
    indptr, indices = nodes.indptr, nodes.indices.astype(np.int64)
    row = np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr))
    keys = row * m + indices
    # Sorted columns put a row's lower neighbours first, the node itself last.
    size = np.bincount(row[indices <= row], minlength=m)
    if np.any(size == 0) or np.any(keys[indptr[:-1] + size - 1] != np.arange(m) * (m + 1)):
        raise ValidationError("block has a node without its diagonal 3x3 block")
    padded = np.concatenate([nodes.data, np.zeros((1, 3, 3))])
    row_nnz = np.repeat(3 * size, 3)
    g_indptr = np.concatenate([[0], np.cumsum(row_nnz)])
    g_indices = np.empty(g_indptr[-1], dtype=np.int64)
    g_data = np.empty(g_indptr[-1])
    flops = 0.0
    for s in np.unique(size):
        group = np.flatnonzero(size == s)
        flops += len(group) * (2.0 / 3.0 * (3 * s) ** 3 + 6.0 * (3 * s) ** 2)
        chunk = max(1, FSAI_CHUNK_DOUBLES // (9 * s * s))
        for lo in range(0, len(group), chunk):
            ids = group[lo : lo + chunk]
            pattern = indptr[ids][:, None] + np.arange(s)
            cols = indices[pattern]  # (k, s) node pattern, ascending
            query = (cols[:, :, None] * m + cols[:, None, :]).ravel()
            at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
            at[keys[at] != query] = len(keys)  # two neighbours not coupled: zero
            dense = padded[at].reshape(len(ids), s, s, 3, 3).transpose(0, 1, 3, 2, 4)
            dense = dense.reshape(len(ids), 3 * s, 3 * s)
            rhs = np.zeros((3 * s, 3))
            rhs[-3:] = np.eye(3)
            x = np.linalg.solve(dense, rhs)
            last = x[:, -3:, :]
            corner = np.linalg.cholesky(np.linalg.inv(0.5 * (last + last.transpose(0, 2, 1))))
            rows = corner.transpose(0, 2, 1) @ x.transpose(0, 2, 1)  # (k, 3, 3s)
            starts = g_indptr[3 * ids[:, None] + np.arange(3)][:, :, None] + np.arange(3 * s)
            g_data[starts] = rows
            g_indices[starts] = (3 * cols[:, :, None] + np.arange(3)).reshape(len(ids), 1, 3 * s)
    g = sparse.csr_matrix((g_data, g_indices, g_indptr), shape=(n, n))
    return g, flops


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
