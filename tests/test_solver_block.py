"""Multi-RHS block solvers: bit-identity and per-column isolation.

Every column of a :func:`block_gmres` / :func:`block_conjugate_gradient`
call is **bit-identical** to the corresponding single-vector solve,
because the coroutine scheduler interleaves the exact serial iteration
without changing a single floating-point operation. These tests pin that
contract at the Krylov layer, plus the per-column failure isolation.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.solver import (
    BlockJacobiPreconditioner,
    block_conjugate_gradient,
    block_gmres,
    conjugate_gradient,
    contiguous_block_ranges,
    gmres,
)
from repro.util import ConvergenceError


def spd_system(n=120, m=3, seed=3):
    """A small SPD system (shifted 1-D Laplacian) with ``m`` RHS columns."""
    main = 2.4 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    A = sparse.diags([off, main, off], [-1, 0, 1], format="csr")
    rng = np.random.default_rng(seed)
    B = rng.normal(0, 1.0, (n, m))
    return A, B


def nonsym_system(n=120, m=3, seed=4):
    A, B = spd_system(n, m, seed)
    A = A.tolil()
    A[0, n - 1] = 0.3  # break symmetry
    return A.tocsr(), B


class TestBlockKrylov:
    def test_block_cg_bit_identical_to_serial(self):
        A, B = spd_system()
        M = BlockJacobiPreconditioner(A, contiguous_block_ranges(A.shape[0], 4))
        results = block_conjugate_gradient(A, B, preconditioner=M, tol=1e-10)
        for c, result in enumerate(results):
            serial = conjugate_gradient(A, B[:, c], preconditioner=M, tol=1e-10)
            assert result.converged and serial.converged
            assert result.iterations == serial.iterations
            assert np.array_equal(result.x, serial.x)
            assert result.history == serial.history

    def test_block_gmres_bit_identical_to_serial(self):
        A, B = nonsym_system()
        M = BlockJacobiPreconditioner(A, contiguous_block_ranges(A.shape[0], 4))
        results = block_gmres(A, B, preconditioner=M, tol=1e-10, restart=25)
        for c, result in enumerate(results):
            serial = gmres(A, B[:, c], preconditioner=M, tol=1e-10, restart=25)
            assert result.converged and serial.converged
            assert result.iterations == serial.iterations
            assert np.array_equal(result.x, serial.x)

    def test_warm_start_columns_match_serial_and_converge_faster(self):
        A, B = spd_system()
        cold = block_conjugate_gradient(A, B, tol=1e-10)
        # Perturbed committed solutions as per-column initial guesses;
        # column 1 stays cold (None) inside a warm batch.
        rng = np.random.default_rng(9)
        x0s = [
            cold[0].x + 1e-6 * rng.normal(size=cold[0].x.shape),
            None,
            cold[2].x + 1e-6 * rng.normal(size=cold[2].x.shape),
        ]
        warm = block_conjugate_gradient(A, B, x0s=x0s, tol=1e-10)
        for c, result in enumerate(warm):
            serial = conjugate_gradient(A, B[:, c], x0=x0s[c], tol=1e-10)
            assert np.array_equal(result.x, serial.x)
            assert result.iterations == serial.iterations
        assert warm[0].iterations < cold[0].iterations
        assert warm[2].iterations < cold[2].iterations
        assert warm[1].iterations == cold[1].iterations

    def test_mixed_width_ragged_against_serial(self):
        # One column and five columns behave the same as any other width.
        A, B = spd_system(m=5)
        lone = block_conjugate_gradient(A, B[:, :1], tol=1e-10)
        assert len(lone) == 1
        serial = conjugate_gradient(A, B[:, 0], tol=1e-10)
        assert np.array_equal(lone[0].x, serial.x)
        wide = block_conjugate_gradient(A, B, tol=1e-10)
        assert len(wide) == 5

    def test_isolate_errors_keeps_good_columns(self):
        A, B = spd_system()
        B = B.copy()
        B[:, 0] = 0.0  # zero RHS short-circuits to x = 0, converged
        results = block_conjugate_gradient(
            A, B, tol=1e-14, max_iter=2, raise_on_fail=True, isolate_errors=True
        )
        assert results[0].converged
        assert np.array_equal(results[0].x, np.zeros(A.shape[0]))
        for slot in results[1:]:
            assert isinstance(slot, ConvergenceError)

    def test_without_isolation_failure_propagates(self):
        A, B = spd_system()
        with pytest.raises(ConvergenceError):
            block_conjugate_gradient(A, B, tol=1e-14, max_iter=2, raise_on_fail=True)
