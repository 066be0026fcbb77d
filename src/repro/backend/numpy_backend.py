"""Reference numpy implementation of the compute-backend surface.

This is the always-available fallback: pure vectorized numpy/scipy, no
optional dependencies. Every accelerated backend is validated against
these kernels (parity <= 1e-10 in ``tests/test_backend.py``). The math
is the code that lived inline in :mod:`repro.fem.element` /
:mod:`repro.fem.context` before the backend seam was introduced, except
that the element stiffness is two batched ``matmul``s where it was two
``einsum``s (equal to within 1 ulp of an element's largest entry).
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import BlockApply, ComputeBackend
from repro.util import ValidationError


class ScipyBlockApply(BlockApply):
    """Sequential per-block SuperLU solves (the reference application)."""

    def __init__(self, ranges, factors):
        self.ranges = [(int(a), int(b)) for a, b in ranges]
        self.factors = list(factors)

    def __call__(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        for (a, b), factor in zip(self.ranges, self.factors):
            out[a:b] = factor.solve(r[a:b])
        return out


class NumpyBackend(ComputeBackend):
    """Vectorized numpy kernels — the reference semantics."""

    name = "numpy"

    def shape_gradients(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = coords.shape[0]
        # Rows of [1 x y z] per node; the inverse columns are the
        # polynomial coefficients (a, b, c, d)/6V of each shape function.
        mats = np.concatenate([np.ones((m, 4, 1)), coords], axis=2)  # (m, 4, 4)
        det = np.linalg.det(mats)
        if np.any(np.abs(det) < 1e-30):
            raise ValidationError("degenerate tetrahedron (zero volume) in batch")
        inv = np.linalg.inv(mats)  # (m, 4, 4): inv[:, :, i] are coeffs of N_i
        gradients = np.transpose(inv[:, 1:4, :], (0, 2, 1))  # (m, 4, 3)
        volumes = det / 6.0
        return gradients, volumes

    def element_stiffness_from_B(
        self, B: np.ndarray, volumes: np.ndarray, elasticity: np.ndarray
    ) -> np.ndarray:
        # Batched matmul runs each 6x6.6x12 / 12x6.6x12 product through
        # BLAS; the same contraction written as einsum falls to numpy's
        # generic loop and is ~10x slower (benchmarks/test_kernels.py).
        K = np.matmul(B.transpose(0, 2, 1), np.matmul(elasticity, B))
        K *= volumes[:, None, None]
        return K

    def element_strains(self, B: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.einsum("mij,mj->mi", B, u)

    def element_stress(self, elasticity: np.ndarray, strains: np.ndarray) -> np.ndarray:
        return np.einsum("mij,mj->mi", elasticity, strains)

    def coo_accumulate(
        self, scatter: np.ndarray, values: np.ndarray, nnz: int
    ) -> np.ndarray:
        return np.bincount(scatter, weights=values, minlength=nnz)

    def csr_matvec(self, matrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        y = matrix @ x
        if out is not None:
            out[:] = y
            return out
        return np.asarray(y)

    def prepare_block_apply(self, ranges, factors) -> BlockApply:
        return ScipyBlockApply(ranges, factors)
