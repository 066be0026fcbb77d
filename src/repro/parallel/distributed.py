"""Distributed row-block matrix and vector primitives.

A :class:`RowBlockMatrix` is the virtual-parallel analogue of a PETSc
MPIAIJ matrix: each rank owns a contiguous block of rows (its local CSR
slice) plus the *halo* bookkeeping — which vector entries it must import
from which peer before a matvec, and how many bytes that costs. Vector
reductions are computed as sums of per-rank partials followed by a
scalar allreduce, exactly mirroring the communication structure whose
cost the machine model charges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.machines.cost import NullTelemetry
from repro.util import ShapeError, ValidationError

_NULL = NullTelemetry()


@dataclass
class RowBlockMatrix:
    """A square sparse matrix split into contiguous per-rank row blocks.

    Attributes
    ----------
    local:
        Per-rank CSR slices ``A[start_r:stop_r, :]``. :meth:`from_csr`
        builds them over views of the source matrix's ``data`` and
        ``indices`` — one copy of the values, shared with the source.
    ranges:
        ``(n_ranks, 2)`` half-open row ranges.
    halo_pairs:
        ``{(src, dst): nbytes}`` — bytes rank ``dst`` imports from rank
        ``src`` for one matvec (8 bytes per imported vector entry).
    local_nnz:
        Nonzeros per rank's row block.
    """

    local: list[sparse.csr_matrix]
    ranges: np.ndarray
    n: int
    halo_pairs: dict[tuple[int, int], float]
    local_nnz: np.ndarray

    @classmethod
    def from_csr(cls, matrix: sparse.csr_matrix, ranges: np.ndarray) -> "RowBlockMatrix":
        """Split a CSR matrix by contiguous row ranges.

        ``ranges`` must tile ``[0, n)``; halo import sets are derived
        from the column patterns of each block.
        """
        n = matrix.shape[0]
        if matrix.shape[0] != matrix.shape[1]:
            raise ShapeError(f"matrix must be square, got {matrix.shape}")
        ranges = np.asarray(ranges, dtype=np.intp)
        if ranges.ndim != 2 or ranges.shape[1] != 2:
            raise ShapeError(f"ranges must be (r, 2), got {ranges.shape}")
        expected = 0
        for a, b in ranges:
            if a != expected or b < a:
                raise ValidationError("ranges must tile [0, n) contiguously")
            expected = b
        if expected != n:
            raise ValidationError(f"ranges cover [0, {expected}) but matrix has {n} rows")
        csr = matrix.tocsr()
        local = []
        halo: dict[tuple[int, int], float] = {}
        nnz = np.zeros(len(ranges), dtype=np.int64)
        # Columns a block reads, marked on one reused mask: the marked
        # columns outside the block's own rows are its halo, in order.
        referenced = np.zeros(n, dtype=bool)
        for rank, (a, b) in enumerate(ranges):
            # Rows a..b of a CSR are one contiguous run of data/indices:
            # the block holds views of the source (only its rebased
            # b-a+1 indptr is new), not a csr[a:b, :] copy. Assigned, not
            # passed to the constructor, which copies any view shorter
            # than half its base even with copy=False.
            lo, hi = csr.indptr[a], csr.indptr[b]
            block = sparse.csr_matrix((b - a, n), dtype=csr.dtype)
            block.data, block.indices = csr.data[lo:hi], csr.indices[lo:hi]
            block.indptr = csr.indptr[a : b + 1] - lo
            local.append(block)
            nnz[rank] = block.nnz
            referenced[block.indices] = True
            referenced[a:b] = False
            external = np.flatnonzero(referenced)
            referenced[external] = False
            if len(external):
                # Halo entries per source rank: ``external`` is sorted, so
                # each rank's run of it lies between two search positions.
                counts = np.diff(np.searchsorted(external, ranges[:, 0]), append=len(external))
                for src in np.flatnonzero(counts):
                    halo[(int(src), rank)] = float(counts[src] * 8)
        return cls(local=local, ranges=ranges, n=n, halo_pairs=halo, local_nnz=nnz)

    @property
    def n_ranks(self) -> int:
        return len(self.local)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def local_lengths(self) -> np.ndarray:
        return (self.ranges[:, 1] - self.ranges[:, 0]).astype(np.int64)

    def matvec(self, x: np.ndarray, telemetry=_NULL) -> np.ndarray:
        """Distributed matvec: halo exchange, then per-rank local products."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ShapeError(f"x must be ({self.n},), got {x.shape}")
        telemetry.halo_exchange(self.halo_pairs)
        telemetry.compute_all(2.0 * self.local_nnz)
        out = np.empty(self.n)
        for block, (a, b) in zip(self.local, self.ranges):
            out[a:b] = block @ x
        return out

    def to_csr(self) -> sparse.csr_matrix:
        return sparse.vstack(self.local, format="csr")


def distributed_dot(
    x: np.ndarray, y: np.ndarray, ranges: np.ndarray, telemetry=_NULL
) -> float:
    """Dot product as per-rank partials + scalar allreduce."""
    lengths = (ranges[:, 1] - ranges[:, 0]).astype(float)
    telemetry.compute_all(2.0 * lengths)
    total = 0.0
    for a, b in ranges:
        total += float(np.dot(x[a:b], y[a:b]))
    telemetry.allreduce(8.0)
    return total


def distributed_norm(x: np.ndarray, ranges: np.ndarray, telemetry=_NULL) -> float:
    """Euclidean norm via a distributed dot (never negative under roundoff)."""
    return float(np.sqrt(max(distributed_dot(x, x, ranges, telemetry), 0.0)))


def distributed_axpy_cost(ranges: np.ndarray, telemetry=_NULL, n_vectors: float = 1.0) -> None:
    """Charge the cost of ``n_vectors`` axpy/scale passes (no data motion)."""
    lengths = (ranges[:, 1] - ranges[:, 0]).astype(float)
    telemetry.compute_all(2.0 * lengths * n_vectors)
