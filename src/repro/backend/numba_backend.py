"""Numba-JIT implementation of the compute-backend surface.

Kernels follow the BrainGrowth idiom for tetrahedral mechanics: batched
``(ne, ...)`` per-element arrays under ``@njit(parallel=True)`` with
``prange`` over elements (or blocks, for the preconditioner). All
kernels compile lazily on first use (``cache=True`` persists the
compiled code across processes), so importing this module is cheap.

Robustness contract: this module must *never* take the pipeline down.
Importing it raises :class:`ImportError` when numba is absent (the
registry catches that and falls back to numpy with a warning), and each
kernel invocation is guarded — a compilation or runtime failure warns
once and permanently delegates that kernel to the numpy reference. The
repacked block-LU application additionally verifies itself against
``scipy``'s SuperLU solve on a probe vector before it is trusted.
"""

from __future__ import annotations

import warnings

import numpy as np
from numba import njit, prange  # noqa: F401  (ImportError => backend unavailable)

from repro.backend.base import BlockApply, ComputeBackend
from repro.backend.numpy_backend import NumpyBackend, ScipyBlockApply
from repro.util import ValidationError

# ---------------------------------------------------------------------------
# JIT kernels. Plain functions of plain arrays: no closures, no objects,
# so numba's on-disk cache can be reused across sessions.
# ---------------------------------------------------------------------------


@njit(parallel=True, cache=True)
def _shape_gradients(coords):
    """Analytic gradients/volumes of linear tetrahedra, prange over elements."""
    m = coords.shape[0]
    grads = np.empty((m, 4, 3))
    vols = np.empty(m)
    for e in prange(m):
        d1x = coords[e, 1, 0] - coords[e, 0, 0]
        d1y = coords[e, 1, 1] - coords[e, 0, 1]
        d1z = coords[e, 1, 2] - coords[e, 0, 2]
        d2x = coords[e, 2, 0] - coords[e, 0, 0]
        d2y = coords[e, 2, 1] - coords[e, 0, 1]
        d2z = coords[e, 2, 2] - coords[e, 0, 2]
        d3x = coords[e, 3, 0] - coords[e, 0, 0]
        d3y = coords[e, 3, 1] - coords[e, 0, 1]
        d3z = coords[e, 3, 2] - coords[e, 0, 2]
        # Face-normal cross products: d2 x d3, d3 x d1, d1 x d2.
        c1x = d2y * d3z - d2z * d3y
        c1y = d2z * d3x - d2x * d3z
        c1z = d2x * d3y - d2y * d3x
        c2x = d3y * d1z - d3z * d1y
        c2y = d3z * d1x - d3x * d1z
        c2z = d3x * d1y - d3y * d1x
        c3x = d1y * d2z - d1z * d2y
        c3y = d1z * d2x - d1x * d2z
        c3z = d1x * d2y - d1y * d2x
        det6 = d1x * c1x + d1y * c1y + d1z * c1z  # 6 * signed volume
        vols[e] = det6 / 6.0
        inv = 1.0 / det6 if det6 != 0.0 else 0.0
        grads[e, 1, 0] = c1x * inv
        grads[e, 1, 1] = c1y * inv
        grads[e, 1, 2] = c1z * inv
        grads[e, 2, 0] = c2x * inv
        grads[e, 2, 1] = c2y * inv
        grads[e, 2, 2] = c2z * inv
        grads[e, 3, 0] = c3x * inv
        grads[e, 3, 1] = c3y * inv
        grads[e, 3, 2] = c3z * inv
        for ax in range(3):
            grads[e, 0, ax] = -(grads[e, 1, ax] + grads[e, 2, ax] + grads[e, 3, ax])
    return grads, vols


@njit(parallel=True, cache=True)
def _element_stiffness(B, vols, D):
    """Batched K_e = |V| B^T D B with explicit small-matrix loops."""
    m = B.shape[0]
    out = np.empty((m, 12, 12))
    for e in prange(m):
        DB = np.empty((6, 12))
        for i in range(6):
            for k in range(12):
                s = 0.0
                for j in range(6):
                    s += D[e, i, j] * B[e, j, k]
                DB[i, k] = s
        v = vols[e]
        for i in range(12):
            for k in range(12):
                s = 0.0
                for j in range(6):
                    s += B[e, j, i] * DB[j, k]
                out[e, i, k] = s * v
    return out


@njit(parallel=True, cache=True)
def _element_strains(B, u):
    m = B.shape[0]
    out = np.empty((m, 6))
    for e in prange(m):
        for i in range(6):
            s = 0.0
            for j in range(12):
                s += B[e, i, j] * u[e, j]
            out[e, i] = s
    return out


@njit(parallel=True, cache=True)
def _element_stress(D, strains):
    m = D.shape[0]
    out = np.empty((m, 6))
    for e in prange(m):
        for i in range(6):
            s = 0.0
            for j in range(6):
                s += D[e, i, j] * strains[e, j]
            out[e, i] = s
    return out


@njit(cache=True)
def _coo_accumulate(scatter, values, out):
    """Serial scatter-add (parallel would race on shared slots)."""
    out[:] = 0.0
    for i in range(scatter.shape[0]):
        out[scatter[i]] += values[i]
    return out


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


class JitBlockApply(BlockApply):
    """Block LU application through the prange kernel.

    Construction repacks the SuperLU factors into flat triangular CSR
    arrays and *verifies* the kernel against ``factor.solve`` on a probe
    vector (this also covers SuperLU configurations — e.g. equilibration
    scalings — that the repacked form cannot represent). Use
    :func:`build_block_apply` which falls back to the scipy loop when
    verification fails.
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


def build_block_apply(ranges, factors) -> BlockApply:
    """JIT block apply when the factors repack faithfully, else scipy."""
    try:
        return JitBlockApply(ranges, factors)
    except Exception as exc:  # pragma: no cover - depends on SuperLU internals
        warnings.warn(
            f"numba block-LU apply unavailable ({exc}); using scipy per-block solves",
            RuntimeWarning,
            stacklevel=2,
        )
        return ScipyBlockApply(ranges, factors)


# ---------------------------------------------------------------------------
# The backend.
# ---------------------------------------------------------------------------


def _c64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


class NumbaBackend(ComputeBackend):
    """JIT kernel surface with per-kernel graceful degradation.

    Any kernel that fails to compile or run warns once and permanently
    delegates to the numpy reference — a partially working numba install
    degrades instead of aborting an intraoperative run.
    """

    name = "numba"

    def __init__(self) -> None:
        self._reference = NumpyBackend()
        self._degraded: set[str] = set()

    def _fallback(self, kernel: str, exc: Exception):
        if kernel not in self._degraded:
            self._degraded.add(kernel)
            warnings.warn(
                f"numba kernel {kernel!r} failed ({type(exc).__name__}: {exc}); "
                "falling back to the numpy reference for this kernel",
                RuntimeWarning,
                stacklevel=3,
            )
        return self._reference

    def shape_gradients(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if "shape_gradients" in self._degraded:
            return self._reference.shape_gradients(coords)
        try:
            grads, vols = _shape_gradients(_c64(coords))
        except ValidationError:
            raise
        except Exception as exc:
            return self._fallback("shape_gradients", exc).shape_gradients(coords)
        if np.any(np.abs(vols) * 6.0 < 1e-30):
            raise ValidationError("degenerate tetrahedron (zero volume) in batch")
        return grads, vols

    def element_stiffness_from_B(
        self, B: np.ndarray, volumes: np.ndarray, elasticity: np.ndarray
    ) -> np.ndarray:
        if "element_stiffness" in self._degraded:
            return self._reference.element_stiffness_from_B(B, volumes, elasticity)
        try:
            return _element_stiffness(_c64(B), _c64(volumes), _c64(elasticity))
        except Exception as exc:
            return self._fallback("element_stiffness", exc).element_stiffness_from_B(
                B, volumes, elasticity
            )

    def element_strains(self, B: np.ndarray, u: np.ndarray) -> np.ndarray:
        if "element_strains" in self._degraded:
            return self._reference.element_strains(B, u)
        try:
            return _element_strains(_c64(B), _c64(u))
        except Exception as exc:
            return self._fallback("element_strains", exc).element_strains(B, u)

    def element_stress(self, elasticity: np.ndarray, strains: np.ndarray) -> np.ndarray:
        if "element_stress" in self._degraded:
            return self._reference.element_stress(elasticity, strains)
        try:
            return _element_stress(_c64(elasticity), _c64(strains))
        except Exception as exc:
            return self._fallback("element_stress", exc).element_stress(
                elasticity, strains
            )

    def coo_accumulate(
        self, scatter: np.ndarray, values: np.ndarray, nnz: int
    ) -> np.ndarray:
        if "coo_accumulate" in self._degraded:
            return self._reference.coo_accumulate(scatter, values, nnz)
        try:
            return _coo_accumulate(
                np.ascontiguousarray(scatter, dtype=np.int64),
                _c64(values),
                np.empty(int(nnz)),
            )
        except Exception as exc:
            return self._fallback("coo_accumulate", exc).coo_accumulate(
                scatter, values, nnz
            )

    def csr_matvec(self, matrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if "csr_matvec" in self._degraded:
            return self._reference.csr_matvec(matrix, x, out)
        target = out if out is not None else np.empty(matrix.shape[0])
        try:
            return _csr_matvec(
                matrix.data,
                matrix.indices,
                matrix.indptr,
                _c64(x),
                target,
            )
        except Exception as exc:
            return self._fallback("csr_matvec", exc).csr_matvec(matrix, x, out)

    def prepare_block_apply(self, ranges, factors) -> BlockApply:
        if "block_apply" in self._degraded:
            return self._reference.prepare_block_apply(ranges, factors)
        try:
            return build_block_apply(ranges, factors)
        except Exception as exc:
            return self._fallback("block_apply", exc).prepare_block_apply(
                ranges, factors
            )

    # -- validation hook ---------------------------------------------------

    def self_check(self, m: int = 64, seed: int = 0) -> float:
        """Compile and compare every element/sparse kernel vs numpy.

        Returns the worst absolute deviation observed; raises on shape
        mismatches. Used by the parity tests (and usable by operators as
        a preflight in new environments).
        """
        from scipy import sparse

        rng = np.random.default_rng(seed)
        ref = self._reference
        coords = rng.normal(size=(m, 4, 3)) + np.array([0.0, 0.0, 5.0])
        worst = 0.0
        g_a, v_a = self.shape_gradients(coords)
        g_b, v_b = ref.shape_gradients(coords)
        worst = max(worst, float(np.max(np.abs(g_a - g_b))), float(np.max(np.abs(v_a - v_b))))
        B = rng.normal(size=(m, 6, 12))
        D = rng.normal(size=(m, 6, 6))
        vols = np.abs(rng.normal(size=m)) + 0.1
        worst = max(worst, float(np.max(np.abs(
            self.element_stiffness_from_B(B, vols, D)
            - ref.element_stiffness_from_B(B, vols, D)
        ))))
        u = rng.normal(size=(m, 12))
        worst = max(worst, float(np.max(np.abs(
            self.element_strains(B, u) - ref.element_strains(B, u)
        ))))
        eps = rng.normal(size=(m, 6))
        worst = max(worst, float(np.max(np.abs(
            self.element_stress(D, eps) - ref.element_stress(D, eps)
        ))))
        scatter = rng.integers(0, 50, size=400)
        values = rng.normal(size=400)
        worst = max(worst, float(np.max(np.abs(
            self.coo_accumulate(scatter, values, 50)
            - ref.coo_accumulate(scatter, values, 50)
        ))))
        A = sparse.random(40, 60, density=0.2, random_state=1, format="csr")
        x = rng.normal(size=60)
        worst = max(worst, float(np.max(np.abs(
            self.csr_matvec(A, x) - ref.csr_matvec(A, x)
        ))))
        return worst
