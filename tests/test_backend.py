"""The numpy kernels ``repro.backend`` keeps for the end-to-end probes.

``TestNoAllocation`` pins the block-Jacobi apply's reused output buffer;
``TestKernelSurface`` holds the three kernels to first-principles forms.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from repro.backend import get_backend
from tests.conftest import block_jacobi, contiguous_ranges


def _spd_system(n=60, n_blocks=3, seed=0):
    rng = np.random.default_rng(seed)
    A = sparse.random(n, n, density=0.08, random_state=rng, format="csr")
    A = (A + A.T) * 0.5 + sparse.eye(n) * n
    return A.tocsr(), [(int(a), int(b)) for a, b in contiguous_ranges(n, n_blocks)]


class TestNoAllocation:
    def test_block_jacobi_reuses_apply_buffer(self):
        A, ranges = _spd_system()
        p = block_jacobi(A, ranges, factorization="ilu")
        rng = np.random.default_rng(3)
        out1 = p.solve(rng.normal(size=A.shape[0]))
        out2 = p.solve(rng.normal(size=A.shape[0]))
        assert out1 is out2  # same preallocated buffer, no per-apply allocation

    def test_distributed_block_jacobi_reuses_apply_buffer(self):
        from repro.parallel.distributed import RowBlockMatrix
        from repro.parallel.solver import DistributedBlockJacobi

        A, ranges = _spd_system()
        matrix = RowBlockMatrix.from_csr(A, np.asarray(ranges))
        p = DistributedBlockJacobi(matrix, factorization="lu")
        rng = np.random.default_rng(4)
        out1 = p.solve(rng.normal(size=A.shape[0]))
        out2 = p.solve(rng.normal(size=A.shape[0]))
        assert out1 is out2

    def test_block_jacobi_apply_matches_direct_solves(self):
        A, ranges = _spd_system(seed=5)
        p = block_jacobi(A, ranges)
        r = np.random.default_rng(6).normal(size=A.shape[0])
        expected = np.empty_like(r)
        for a, b in ranges:
            expected[a:b] = spla.splu(A[a:b, a:b].tocsc()).solve(r[a:b])
        assert np.abs(p.solve(r) - expected).max() < 1e-10


class TestKernelSurface:
    """The numpy reference kernels against first-principles formulations."""

    def test_coo_accumulate_matches_add_at(self, rng):
        nnz = 40
        scatter = rng.integers(0, nnz, size=500)
        values = rng.normal(size=500)
        expected = np.zeros(nnz)
        np.add.at(expected, scatter, values)
        got = get_backend().coo_accumulate(scatter, values, nnz)
        assert got.shape == (nnz,)
        assert np.allclose(got, expected, atol=1e-12)

    def test_csr_matvec_matches_scipy(self, rng):
        A = sparse.random(50, 50, density=0.1, random_state=rng, format="csr")
        x = rng.normal(size=50)
        backend = get_backend()
        assert np.allclose(backend.csr_matvec(A, x), A @ x, atol=1e-12)

    def test_csr_matvec_writes_into_out_view(self, rng):
        A = sparse.random(30, 30, density=0.2, random_state=rng, format="csr")
        x = rng.normal(size=30)
        out = np.zeros(60)
        result = get_backend().csr_matvec(A, x, out=out[15:45])
        assert np.allclose(out[15:45], A @ x, atol=1e-12)
        assert np.allclose(result, A @ x, atol=1e-12)
        assert np.all(out[:15] == 0) and np.all(out[45:] == 0)

    def test_prepare_block_apply_matches_factor_solve(self, rng):
        A, ranges = _spd_system(seed=7)
        factors = [spla.splu(A[a:b, a:b].tocsc()) for a, b in ranges]
        apply = get_backend().prepare_block_apply(ranges, factors)
        r = rng.normal(size=A.shape[0])
        out = np.empty_like(r)
        got = apply(r, out)
        assert got is out
        expected = np.concatenate(
            [factor.solve(r[a:b]) for (a, b), factor in zip(ranges, factors)]
        )
        assert np.abs(got - expected).max() < 1e-10
