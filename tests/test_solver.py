"""Tests for GMRES, CG, preconditioners, and the operator protocol."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.solver.cg import conjugate_gradient
from repro.solver.gmres import gmres
from repro.solver.operator import AsOperator, MatrixOperator
from repro.solver.preconditioner import IdentityPreconditioner, JacobiPreconditioner
from repro.util import ConvergenceError, ShapeError, ValidationError
from tests.conftest import block_jacobi


def spd_matrix(n=40, seed=0, density=0.2):
    rng = np.random.default_rng(seed)
    A = sparse.random(n, n, density=density, random_state=np.random.RandomState(seed))
    A = A + A.T + sparse.eye(n) * (n / 2.0)
    return A.tocsr(), rng


def nonsymmetric_matrix(n=40, seed=1):
    rng = np.random.default_rng(seed)
    A = sparse.random(n, n, density=0.15, random_state=np.random.RandomState(seed))
    A = A + sparse.eye(n) * (n / 2.0)
    return A.tocsr(), rng


class TestOperator:
    def test_matrix_operator_matvec(self):
        A, _ = spd_matrix(10)
        op = MatrixOperator(A)
        x = np.arange(10.0)
        assert np.allclose(op.matvec(x), A @ x)

    def test_as_operator_accepts_dense(self):
        op = AsOperator(np.eye(3))
        assert op.shape == (3, 3)

    def test_as_operator_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            AsOperator(np.zeros((2, 3)))

    def test_as_operator_passthrough(self):
        A, _ = spd_matrix(5)
        op = MatrixOperator(A)
        assert AsOperator(op) is op


class TestGMRES:
    def test_solves_spd(self):
        A, rng = spd_matrix()
        b = rng.normal(size=40)
        result = gmres(A, b, tol=1e-10)
        assert result.converged
        assert np.allclose(A @ result.x, b, atol=1e-7)

    def test_solves_nonsymmetric(self):
        A, rng = nonsymmetric_matrix()
        b = rng.normal(size=40)
        result = gmres(A, b, tol=1e-10)
        assert result.converged
        assert np.allclose(A @ result.x, b, atol=1e-7)

    def test_restart_still_converges(self):
        A, rng = spd_matrix(60, seed=2)
        b = rng.normal(size=60)
        result = gmres(A, b, tol=1e-9, restart=5)
        assert result.converged
        assert result.restarts >= 1
        assert np.allclose(A @ result.x, b, atol=1e-6)

    def test_zero_rhs(self):
        A, _ = spd_matrix(10)
        result = gmres(A, np.zeros(10))
        assert result.converged
        assert np.all(result.x == 0)

    def test_warm_start(self):
        A, rng = spd_matrix()
        b = rng.normal(size=40)
        exact = gmres(A, b, tol=1e-12).x
        warm = gmres(A, b, x0=exact, tol=1e-8)
        assert warm.iterations <= 1

    def test_max_iter_exhaustion_reports(self):
        A, rng = spd_matrix(50, seed=3)
        b = rng.normal(size=50)
        result = gmres(A, b, tol=1e-14, max_iter=3)
        assert not result.converged
        assert result.iterations == 3

    def test_raise_on_fail(self):
        A, rng = spd_matrix(50, seed=3)
        b = rng.normal(size=50)
        with pytest.raises(ConvergenceError):
            gmres(A, b, tol=1e-15, max_iter=2, raise_on_fail=True)

    def test_history_monotone_within_cycle(self):
        A, rng = spd_matrix(50, seed=4)
        b = rng.normal(size=50)
        result = gmres(A, b, tol=1e-10, restart=50)
        hist = np.array(result.history)
        assert np.all(np.diff(hist) <= 1e-12)  # GMRES residual non-increasing

    def test_preconditioner_reduces_iterations(self):
        A, rng = spd_matrix(80, seed=5)
        # Make it badly scaled so Jacobi helps.
        d = sparse.diags(np.logspace(0, 3, 80))
        A = (d @ A @ d).tocsr()
        b = rng.normal(size=80)
        plain = gmres(A, b, tol=1e-8, max_iter=2000)
        pre = gmres(A, b, preconditioner=JacobiPreconditioner(A), tol=1e-8, max_iter=2000)
        assert pre.iterations < plain.iterations

    def test_validates_inputs(self):
        A, _ = spd_matrix(10)
        with pytest.raises(ShapeError):
            gmres(A, np.zeros(5))
        with pytest.raises(ValidationError):
            gmres(A, np.zeros(10), restart=0)
        with pytest.raises(ValidationError):
            gmres(A, np.zeros(10), tol=0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**30))
    def test_property_solution_satisfies_system(self, seed):
        A, rng = spd_matrix(25, seed=seed, density=0.3)
        b = rng.normal(size=25)
        result = gmres(A, b, tol=1e-11, max_iter=500)
        assert result.converged
        assert np.linalg.norm(A @ result.x - b) < 1e-6 * np.linalg.norm(b)


class TestCG:
    def test_matches_gmres_on_spd(self):
        A, rng = spd_matrix(50, seed=6)
        b = rng.normal(size=50)
        x_cg = conjugate_gradient(A, b, tol=1e-11).x
        x_gm = gmres(A, b, tol=1e-11).x
        assert np.allclose(x_cg, x_gm, atol=1e-6)

    def test_detects_indefinite(self):
        A = sparse.diags([1.0, -1.0, 2.0]).tocsr()
        with pytest.raises(ConvergenceError):
            conjugate_gradient(A, np.ones(3), tol=1e-10)

    def test_zero_rhs(self):
        A, _ = spd_matrix(10)
        assert conjugate_gradient(A, np.zeros(10)).converged

    def test_jacobi_preconditioned(self):
        A, rng = spd_matrix(60, seed=7)
        b = rng.normal(size=60)
        result = conjugate_gradient(A, b, preconditioner=JacobiPreconditioner(A), tol=1e-10)
        assert result.converged
        assert np.allclose(A @ result.x, b, atol=1e-6)


class TestPreconditioners:
    def test_identity_copies(self):
        p = IdentityPreconditioner(4)
        r = np.arange(4.0)
        out = p.solve(r)
        out[0] = 99
        assert r[0] == 0

    def test_jacobi_inverts_diagonal(self):
        A = sparse.diags([2.0, 4.0, 8.0]).tocsr()
        p = JacobiPreconditioner(A)
        assert np.allclose(p.solve(np.array([2.0, 4.0, 8.0])), 1.0)

    def test_jacobi_rejects_zero_diagonal(self):
        A = sparse.diags([1.0, 0.0, 1.0]).tocsr()
        with pytest.raises(ValidationError):
            JacobiPreconditioner(A)

    def test_block_jacobi_single_block_is_direct(self):
        A, rng = spd_matrix(30, seed=8)
        p = block_jacobi(A, [(0, 30)])
        b = rng.normal(size=30)
        assert np.allclose(A @ p.solve(b), b, atol=1e-8)

    def test_block_jacobi_blocks_independent(self):
        A, _ = spd_matrix(20, seed=9)
        p = block_jacobi(A, [(0, 10), (10, 20)])
        r = np.zeros(20)
        r[:10] = 1.0
        out = p.solve(r)
        assert np.all(out[10:] == 0)

    def test_block_jacobi_validates_ranges(self):
        A, _ = spd_matrix(10)
        with pytest.raises(ValidationError):
            block_jacobi(A, [(0, 5), (6, 10)])  # gap
        with pytest.raises(ValidationError):
            block_jacobi(A, [(0, 5), (5, 9)])  # short

    def test_more_blocks_weaker_preconditioner(self):
        A, rng = spd_matrix(120, seed=10, density=0.05)
        b = rng.normal(size=120)
        it1 = gmres(A, b, preconditioner=block_jacobi(A, [(0, 120)]), tol=1e-9).iterations
        it4 = gmres(
            A, b,
            preconditioner=block_jacobi(A, [(0, 30), (30, 60), (60, 90), (90, 120)]),
            tol=1e-9,
        ).iterations
        assert it1 <= it4


class TestZeroRHSContract:
    """Regression tests for the zero right-hand-side early return.

    The contract (shared by gmres, conjugate_gradient, and
    distributed_gmres): the exact solution of a nonsingular system with
    b = 0 is x = 0, so the solvers return a zero vector shaped like the
    system regardless of x0 — but x0 is still shape-validated, and the
    residual history carries the single already-converged entry 0.0.
    """

    def test_gmres_zero_rhs_ignores_nonzero_x0(self):
        A, _ = spd_matrix(10)
        x0 = np.full(10, 3.0)
        result = gmres(A, np.zeros(10), x0=x0)
        assert result.converged
        assert result.iterations == 0 and result.restarts == 0
        assert np.all(result.x == 0)
        assert result.x.shape == x0.shape
        assert result.history == [0.0]
        assert result.residual_norm == 0.0

    def test_gmres_zero_rhs_still_validates_x0_shape(self):
        A, _ = spd_matrix(10)
        with pytest.raises(ShapeError):
            gmres(A, np.zeros(10), x0=np.zeros(7))

    def test_gmres_zero_rhs_does_not_alias_x0(self):
        A, _ = spd_matrix(10)
        x0 = np.ones(10)
        result = gmres(A, np.zeros(10), x0=x0)
        assert result.x is not x0
        assert np.all(x0 == 1.0)  # caller's guess untouched

    def test_cg_zero_rhs_ignores_nonzero_x0(self):
        A, _ = spd_matrix(10)
        result = conjugate_gradient(A, np.zeros(10), x0=np.full(10, 2.0))
        assert result.converged
        assert result.iterations == 0
        assert np.all(result.x == 0)
        assert result.history == [0.0]

    def test_cg_zero_rhs_still_validates_x0_shape(self):
        A, _ = spd_matrix(10)
        with pytest.raises(ShapeError):
            conjugate_gradient(A, np.zeros(10), x0=np.zeros(4))
