"""Numba-JIT overrides of the two kernels the Krylov solve loop spends its time in.

:class:`NumbaBackend` is the numpy reference with the CSR mat-vec
(``prange`` over rows) and the block-LU preconditioner application
(``prange`` over blocks, the triangular solves inside) replaced by
``@njit(parallel=True)`` kernels, in the BrainGrowth idiom of plain
batched arrays under ``prange``. Both compile lazily on first use
(``cache=True`` persists the compiled code across processes), so
importing this module is cheap.

Robustness contract: this module must *never* take the pipeline down.
Importing it raises :class:`ImportError` when numba is absent (the
registry catches that and falls back to numpy with a warning). A kernel
that fails to compile or run, and a repacked block apply that fails its
probe check against SuperLU's own solve, warn once, are recorded in
``NumbaBackend._degraded`` and run on the numpy reference from then on.
"""

from __future__ import annotations

import warnings

import numpy as np
from numba import njit, prange  # noqa: F401  (ImportError => backend unavailable)

from repro.backend.numpy_backend import NumpyBackend, ScipyBlockApply
from repro.util import ValidationError

# ---------------------------------------------------------------------------
# JIT kernels. Plain functions of plain arrays: no closures, no objects,
# so numba's on-disk cache can be reused across sessions.
# ---------------------------------------------------------------------------


@njit(parallel=True, cache=True)
def _csr_matvec(data, indices, indptr, x, out):
    n_rows = out.shape[0]
    for i in prange(n_rows):
        s = 0.0
        for jj in range(indptr[i], indptr[i + 1]):
            s += data[jj] * x[indices[jj]]
        out[i] = s
    return out


@njit(parallel=True, cache=True)
def _block_lu_apply(row_off, ldata, lind, lptr, udata, uind, uptr, pr, pc, r, out):
    """Per-block LU application: prange over blocks, triangular solves inside.

    Each block's factorization satisfies ``Pr A Pc = L U`` (SuperLU's
    convention), so ``A^{-1} r = Pc U^{-1} L^{-1} Pr r``. Column indices
    are block-local; row pointers index the flat data arrays directly
    because blocks are stored contiguously.
    """
    nb = row_off.shape[0] - 1
    for k in prange(nb):
        a = row_off[k]
        nk = row_off[k + 1] - a
        rb = np.empty(nk)
        y = np.empty(nk)
        w = np.empty(nk)
        for i in range(nk):
            rb[pr[a + i]] = r[a + i]
        for i in range(nk):  # forward: L y = Pr r
            s = rb[i]
            d = 1.0
            for jj in range(lptr[a + i], lptr[a + i + 1]):
                c = lind[jj]
                if c < i:
                    s -= ldata[jj] * y[c]
                elif c == i:
                    d = ldata[jj]
            y[i] = s / d
        for i in range(nk - 1, -1, -1):  # backward: U w = y
            s = y[i]
            d = 1.0
            for jj in range(uptr[a + i], uptr[a + i + 1]):
                c = uind[jj]
                if c > i:
                    s -= udata[jj] * w[c]
                elif c == i:
                    d = udata[jj]
            w[i] = s / d
        for i in range(nk):
            out[a + i] = w[pc[a + i]]
    return out


# ---------------------------------------------------------------------------
# Factor repacking for the block apply.
# ---------------------------------------------------------------------------


def _flatten_triangular(factors, attr):
    """Concatenate per-block L or U factors into flat CSR arrays.

    Row pointers are rebased so ``ptr[global_row]`` indexes the flat
    ``data``/``indices`` arrays; column indices stay block-local.
    """
    datas, inds, ptr_parts = [], [], [np.zeros(1, dtype=np.int64)]
    offset = 0
    for factor in factors:
        tri = getattr(factor, attr).tocsr()
        tri.sort_indices()
        datas.append(np.asarray(tri.data, dtype=np.float64))
        inds.append(np.asarray(tri.indices, dtype=np.int64))
        ptr_parts.append(np.asarray(tri.indptr[1:], dtype=np.int64) + offset)
        offset += tri.nnz
    return (
        np.concatenate(datas) if datas else np.zeros(0),
        np.concatenate(inds) if inds else np.zeros(0, dtype=np.int64),
        np.concatenate(ptr_parts),
    )


class JitBlockApply:
    """Block LU application through the prange kernel.

    Construction repacks the SuperLU factors into flat triangular CSR
    arrays and *verifies* the kernel against ``factor.solve`` on a probe
    vector (this also covers SuperLU configurations — e.g. equilibration
    scalings — that the repacked form cannot represent), raising
    :class:`repro.util.ValidationError` when they disagree;
    :meth:`NumbaBackend.prepare_block_apply` then falls back to the scipy
    loop.
    """

    def __init__(self, ranges, factors):
        ranges = [(int(a), int(b)) for a, b in ranges]
        self.row_off = np.asarray(
            [a for a, _ in ranges] + [ranges[-1][1]], dtype=np.int64
        )
        self.ldata, self.lind, self.lptr = _flatten_triangular(factors, "L")
        self.udata, self.uind, self.uptr = _flatten_triangular(factors, "U")
        self.pr = np.concatenate(
            [np.asarray(f.perm_r, dtype=np.int64) for f in factors]
        )
        self.pc = np.concatenate(
            [np.asarray(f.perm_c, dtype=np.int64) for f in factors]
        )
        n = self.row_off[-1]
        # Probe: the repacked application must reproduce SuperLU's solve.
        probe = np.cos(0.7 * np.arange(n))  # deterministic, dense, O(1) bounded
        expected = np.empty(n)
        ScipyBlockApply(ranges, factors)(probe, expected)
        got = self(probe, np.empty(n))
        scale = float(np.max(np.abs(expected))) or 1.0
        if not np.all(np.isfinite(got)) or float(
            np.max(np.abs(got - expected))
        ) > 1e-10 * scale:
            raise ValidationError("repacked block-LU apply failed probe verification")

    def __call__(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        return _block_lu_apply(
            self.row_off,
            self.ldata, self.lind, self.lptr,
            self.udata, self.uind, self.uptr,
            self.pr, self.pc,
            np.ascontiguousarray(r, dtype=np.float64),
            out,
        )


# ---------------------------------------------------------------------------
# The backend.
# ---------------------------------------------------------------------------


class NumbaBackend(NumpyBackend):
    """The numpy reference with the two solve-loop kernels JIT-compiled.

    A kernel that fails warns once and delegates to the numpy reference
    for good, recorded in ``_degraded`` — a partially working numba
    install degrades instead of aborting an intraoperative run.
    """

    name = "numba"

    def __init__(self) -> None:
        self._degraded: set[str] = set()

    def _fallback(self, kernel: str, exc: Exception) -> None:
        self._degraded.add(kernel)
        warnings.warn(
            f"numba kernel {kernel!r} failed ({type(exc).__name__}: {exc}); "
            "falling back to the numpy reference for this kernel",
            RuntimeWarning,
            stacklevel=3,
        )

    def csr_matvec(self, matrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if "csr_matvec" not in self._degraded:
            target = out if out is not None else np.empty(matrix.shape[0])
            try:
                return _csr_matvec(
                    matrix.data,
                    matrix.indices,
                    matrix.indptr,
                    np.ascontiguousarray(x, dtype=np.float64),
                    target,
                )
            except Exception as exc:
                self._fallback("csr_matvec", exc)
        return super().csr_matvec(matrix, x, out)

    def prepare_block_apply(self, ranges, factors):
        if "block_apply" not in self._degraded:
            try:
                return JitBlockApply(ranges, factors)
            except Exception as exc:
                self._fallback("block_apply", exc)
        return super().prepare_block_apply(ranges, factors)

    # -- validation hook ---------------------------------------------------

    def self_check(self, seed: int = 0) -> float:
        """Compile both kernels and compare them with the numpy reference.

        Returns the worst absolute deviation over one mat-vec and one
        block apply. A kernel that fails to compile or run, or a block
        apply that fails its probe check, lands in ``_degraded`` (and then
        matches the reference trivially), so a preflight checks both the
        number and ``_degraded``. Used by the parity tests and usable by
        operators in new environments.
        """
        from scipy import sparse
        from scipy.sparse import linalg as spla

        rng = np.random.default_rng(seed)
        ref = NumpyBackend()
        A = sparse.random(40, 60, density=0.2, random_state=1, format="csr")
        x = rng.normal(size=60)
        worst = float(np.max(np.abs(self.csr_matvec(A, x) - ref.csr_matvec(A, x))))
        n = 48
        S = sparse.random(n, n, density=0.1, random_state=2, format="csr")
        S = (S + S.T + n * sparse.eye(n)).tocsc()
        ranges = [(0, 16), (16, 32), (32, n)]
        factors = [spla.splu(S[a:b, a:b]) for a, b in ranges]
        r = rng.normal(size=n)
        got = self.prepare_block_apply(ranges, factors)(r, np.empty(n))
        want = ref.prepare_block_apply(ranges, factors)(r, np.empty(n))
        return max(worst, float(np.max(np.abs(got - want))))
