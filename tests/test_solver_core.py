"""The one Krylov core against the two arithmetics it replaced.

``repro.solver.gmres.gmres_loop`` is the only Arnoldi/Givens loop in
the package; every GMRES entry point is that function with a matvec, a
preconditioner and a reduction. The oracle here is the code it
replaced: frozen copies of the two *distinct* seed bodies — serial
modified Gram-Schmidt (``seed_gmres``) and per-rank CGS2 with telemetry
charges (``seed_distributed_gmres``).

Every comparison is ``==``: solution bytes, residual history,
iteration/restart counts, and (distributed) every telemetry total.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.machines.cost import NullTelemetry, VirtualCluster
from repro.machines.spec import DEEP_FLOW
from repro.obs.trace import NULL_SPAN, Tracer, use_tracer
from repro.parallel.distributed import (
    RowBlockMatrix,
    distributed_axpy_cost,
    distributed_norm,
)
from repro.parallel.solver import DistributedBlockJacobi, distributed_gmres
from repro.solver import JacobiPreconditioner, KrylovResult, conjugate_gradient, gmres
from repro.solver.operator import AsOperator
from repro.solver.preconditioner import IdentityPreconditioner
from repro.util import ConvergenceError, ShapeError, ValidationError
from tests.conftest import block_jacobi, contiguous_ranges

# ---------------------------------------------------------------------------
# Frozen seed references (verbatim from the commit before the core existed;
# only the function names and the result class's name changed). Do not
# edit: they are the oracle.
# ---------------------------------------------------------------------------


def seed_gmres(
    operator,
    b: np.ndarray,
    x0: np.ndarray | None,
    preconditioner,
    tol: float,
    restart: int,
    max_iter: int,
    raise_on_fail: bool,
    span,
) -> KrylovResult:
    A = AsOperator(operator)
    n = A.shape[0]
    b = np.asarray(b, dtype=float).ravel()
    if b.shape != (n,):
        raise ShapeError(f"b must be ({n},), got {b.shape}")
    if restart < 1:
        raise ValidationError(f"restart must be >= 1, got {restart}")
    if tol <= 0:
        raise ValidationError(f"tol must be > 0, got {tol}")
    if not np.all(np.isfinite(b)):
        raise ValidationError(
            f"b contains {int(np.count_nonzero(~np.isfinite(b)))} non-finite entries"
        )
    M = preconditioner if preconditioner is not None else IdentityPreconditioner(n)
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise ShapeError(f"x0 must be ({n},), got {x.shape}")
    if x0 is not None and not np.all(np.isfinite(x)):
        raise ValidationError(
            f"x0 contains {int(np.count_nonzero(~np.isfinite(x)))} non-finite "
            "entries (poisoned warm start?)"
        )

    b_pre_norm = float(np.linalg.norm(M.solve(b)))
    if b_pre_norm == 0.0:
        # Zero RHS: the exact solution is zero whatever x0 was (x0 has
        # already been shape-validated above). Return a fresh zero
        # vector of the x0 shape, never x0 itself (see docstring).
        return KrylovResult(np.zeros_like(x), True, 0, 0, 0.0, [0.0])
    target = tol * b_pre_norm

    history: list[float] = []
    total_iters = 0
    restarts = 0

    # Krylov workspaces are allocated once and reused across restart
    # cycles (every entry read within a cycle is written first, so no
    # re-zeroing is needed); allocating (m+1) x n basis storage per
    # cycle was measurable on clinical systems with many restarts.
    m_cap = min(restart, max_iter)
    V = np.empty((m_cap + 1, n))
    H = np.zeros((m_cap + 1, m_cap))
    cs = np.empty(m_cap)
    sn = np.empty(m_cap)
    g = np.empty(m_cap + 1)

    while total_iters < max_iter:
        restarts += 1
        r = M.solve(b - A.matvec(x))
        beta = float(np.linalg.norm(r))
        history.append(beta)
        span.event("restart", cycle=restarts, residual=beta, iteration=total_iters)
        if beta <= target:
            return KrylovResult(x, True, total_iters, restarts - 1, beta, history)

        m = min(restart, max_iter - total_iters)
        V[0] = r / beta
        g[0] = beta
        k_used = 0
        breakdown = False

        for k in range(m):
            w = M.solve(A.matvec(V[k]))
            # Modified Gram-Schmidt.
            for i in range(k + 1):
                H[i, k] = float(np.dot(w, V[i]))
                w -= H[i, k] * V[i]
            h_next = float(np.linalg.norm(w))
            H[k + 1, k] = h_next
            if h_next > 1e-14 * beta:
                V[k + 1] = w / h_next
            # Apply existing Givens rotations to the new column.
            for i in range(k):
                temp = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = temp
            # New rotation to zero H[k+1, k].
            denom = np.hypot(H[k, k], H[k + 1, k])
            if denom == 0.0:
                cs[k], sn[k] = 1.0, 0.0
            else:
                cs[k] = H[k, k] / denom
                sn[k] = H[k + 1, k] / denom
            H[k, k] = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            total_iters += 1
            k_used = k + 1
            resid = abs(g[k + 1])
            history.append(float(resid))
            if h_next <= 1e-14 * beta:
                breakdown = True
            if resid <= target or breakdown:
                break

        # Solve the triangular system for the Krylov coefficients. On a
        # singular operator the Krylov space can exhaust (lucky
        # breakdown) with a singular H; zero the unresolvable
        # coefficients and verify the true residual below.
        y = np.zeros(k_used)
        for i in range(k_used - 1, -1, -1):
            if abs(H[i, i]) < 1e-14 * beta:
                y[i] = 0.0
                breakdown = True
            else:
                y[i] = (g[i] - H[i, i + 1 : k_used] @ y[i + 1 :]) / H[i, i]
        x = x + V[:k_used].T @ y

        if breakdown:
            # The Givens estimate is unreliable after a breakdown; check
            # the true residual and stop (restarting cannot improve a
            # stagnated singular system).
            final = float(np.linalg.norm(M.solve(b - A.matvec(x))))
            history.append(final)
            if raise_on_fail and final > target:
                raise ConvergenceError(
                    "GMRES breakdown: Krylov space exhausted before reaching the "
                    f"tolerance (relative residual {final / b_pre_norm:.3e}); "
                    "the operator may be singular",
                    iterations=total_iters,
                    residual=final,
                    solver="gmres",
                )
            return KrylovResult(
                x, final <= target, total_iters, restarts, final, history
            )

        final = abs(g[k_used])
        if final <= target:
            return KrylovResult(x, True, total_iters, restarts, final, history)

    r = M.solve(b - A.matvec(x))
    final = float(np.linalg.norm(r))
    if raise_on_fail:
        raise ConvergenceError(
            f"GMRES failed to reach tol={tol} in {total_iters} iterations "
            f"(residual {final / b_pre_norm:.3e} relative)",
            iterations=total_iters,
            residual=final,
            solver="gmres",
        )
    return KrylovResult(x, final <= target, total_iters, restarts, final, history)


def seed_distributed_gmres(
    matrix: RowBlockMatrix,
    b: np.ndarray,
    preconditioner,
    x0: np.ndarray | None,
    tol: float,
    restart: int,
    max_iter: int,
    telemetry,
    raise_on_fail: bool,
    span,
) -> KrylovResult:
    n = matrix.n
    ranges = matrix.ranges
    b = np.asarray(b, dtype=float).ravel()
    if b.shape != (n,):
        raise ShapeError(f"b must be ({n},), got {b.shape}")
    if restart < 1:
        raise ValidationError(f"restart must be >= 1, got {restart}")
    if not np.all(np.isfinite(b)):
        raise ValidationError(
            f"b contains {int(np.count_nonzero(~np.isfinite(b)))} non-finite entries"
        )
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise ShapeError(f"x0 must be ({n},), got {x.shape}")
    if x0 is not None and not np.all(np.isfinite(x)):
        raise ValidationError(
            f"x0 contains {int(np.count_nonzero(~np.isfinite(x)))} non-finite "
            "entries (poisoned warm start?)"
        )

    precond_applications = 0

    def precond(r: np.ndarray) -> np.ndarray:
        # The running application count lands on the span immediately
        # (a dict update; no-op on a disabled tracer) so every return
        # path reports it without a try/finally around the whole solve.
        nonlocal precond_applications
        precond_applications += 1
        span.set(preconditioner_applications=precond_applications)
        if preconditioner is None:
            return r.copy()
        return preconditioner.solve(r, telemetry)

    # Per-rank vector lengths are loop-invariant: computed once here
    # instead of on every fused-orthogonalization reduction.
    lengths = (ranges[:, 1] - ranges[:, 0]).astype(float)

    def ortho_block(Vk: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Fused dots of w against k vectors: one (k*8)-byte allreduce."""
        k = Vk.shape[0]
        telemetry.compute_all(2.0 * k * lengths)
        h = Vk @ w
        telemetry.allreduce(8.0 * k)
        return h

    b_pre = precond(b)
    b_pre_norm = distributed_norm(b_pre, ranges, telemetry)
    if b_pre_norm == 0.0:
        # Zero RHS: exact solution is zero regardless of the (already
        # shape-validated) x0 — same contract as repro.solver.gmres.
        return KrylovResult(np.zeros_like(x), True, 0, 0, 0.0, [0.0])
    target = tol * b_pre_norm

    history: list[float] = []
    total_iters = 0
    restarts = 0

    # Krylov workspaces allocated once and reused across restart cycles
    # (see repro.solver.gmres: every entry read in a cycle is written
    # first, so no re-zeroing is required).
    m_cap = min(restart, max_iter)
    V = np.empty((m_cap + 1, n))
    H = np.zeros((m_cap + 1, m_cap))
    cs = np.empty(m_cap)
    sn = np.empty(m_cap)
    g = np.empty(m_cap + 1)

    while total_iters < max_iter:
        restarts += 1
        r = precond(b - matrix.matvec(x, telemetry))
        distributed_axpy_cost(ranges, telemetry)  # b - Ax
        beta = distributed_norm(r, ranges, telemetry)
        history.append(beta)
        span.event("restart", cycle=restarts, residual=beta, iteration=total_iters)
        if beta <= target:
            return KrylovResult(x, True, total_iters, restarts - 1, beta, history)

        m = min(restart, max_iter - total_iters)
        V[0] = r / beta
        g[0] = beta
        k_used = 0
        breakdown = False

        for k in range(m):
            w = precond(matrix.matvec(V[k], telemetry))
            # CGS2 orthogonalization: two fused reduction rounds.
            h1 = ortho_block(V[: k + 1], w)
            w = w - V[: k + 1].T @ h1
            distributed_axpy_cost(ranges, telemetry, n_vectors=k + 1)
            h2 = ortho_block(V[: k + 1], w)
            w = w - V[: k + 1].T @ h2
            distributed_axpy_cost(ranges, telemetry, n_vectors=k + 1)
            H[: k + 1, k] = h1 + h2
            h_next = distributed_norm(w, ranges, telemetry)
            H[k + 1, k] = h_next
            if h_next > 1e-14 * beta:
                V[k + 1] = w / h_next
                distributed_axpy_cost(ranges, telemetry)
            for i in range(k):
                temp = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = temp
            denom = np.hypot(H[k, k], H[k + 1, k])
            if denom == 0.0:
                cs[k], sn[k] = 1.0, 0.0
            else:
                cs[k] = H[k, k] / denom
                sn[k] = H[k + 1, k] / denom
            H[k, k] = cs[k] * H[k, k] + sn[k] * H[k + 1, k]
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            total_iters += 1
            k_used = k + 1
            resid = abs(g[k + 1])
            history.append(float(resid))
            if h_next <= 1e-14 * beta:
                breakdown = True
            if resid <= target or breakdown:
                break

        # See repro.solver.gmres: guard singular H after lucky breakdown.
        y = np.zeros(k_used)
        for i in range(k_used - 1, -1, -1):
            if abs(H[i, i]) < 1e-14 * beta:
                y[i] = 0.0
                breakdown = True
            else:
                y[i] = (g[i] - H[i, i + 1 : k_used] @ y[i + 1 :]) / H[i, i]
        x = x + V[:k_used].T @ y
        distributed_axpy_cost(ranges, telemetry, n_vectors=k_used)

        if breakdown:
            final = distributed_norm(
                precond(b - matrix.matvec(x, telemetry)), ranges, telemetry
            )
            history.append(final)
            if raise_on_fail and final > target:
                raise ConvergenceError(
                    "distributed GMRES breakdown: Krylov space exhausted before "
                    "reaching the tolerance; the operator may be singular",
                    iterations=total_iters,
                    residual=final,
                    solver="distributed_gmres",
                )
            return KrylovResult(
                x, final <= target, total_iters, restarts, final, history
            )

        final = abs(g[k_used])
        if final <= target:
            return KrylovResult(x, True, total_iters, restarts, final, history)

    r = precond(b - matrix.matvec(x, telemetry))
    final = distributed_norm(r, ranges, telemetry)
    if raise_on_fail:
        raise ConvergenceError(
            f"distributed GMRES failed to reach tol={tol} in {total_iters} iterations",
            iterations=total_iters,
            residual=final,
            solver="distributed_gmres",
        )
    return KrylovResult(x, final <= target, total_iters, restarts, final, history)


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------


class RecordingSpan:
    """Stands in for a tracer span when driving the frozen references."""

    def __init__(self):
        self.events: list[tuple[str, dict]] = []
        self.attrs: dict = {}

    def event(self, name, **attrs):
        self.events.append((name, attrs))

    def set(self, **attrs):
        self.attrs.update(attrs)


def outcome(call):
    """Everything observable about one solve, comparable with ``==``."""
    try:
        r = call()
    except ConvergenceError as exc:
        return ("raised", exc.iterations, exc.residual)
    assert isinstance(r, KrylovResult)
    return ("solved", r.x.tobytes(), r.history, r.iterations, r.restarts,
            r.converged, r.residual_norm)


@st.composite
def krylov_cases(draw):
    n = draw(st.integers(5, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**30)))
    singular = draw(st.integers(0, 4)) == 0
    if singular:
        # A diagonal operator with a null space and at most three distinct
        # nonzero eigenvalues: the Krylov space exhausts after a few steps
        # with the residual still large (the breakdown exit).
        diag = rng.integers(0, 4, size=n).astype(float)
        diag[0] = 0.0
        A = sparse.diags(diag).tocsr()
        precond = "none"
    else:
        A = sparse.random(n, n, density=0.15, random_state=rng, format="csr")
        A = (A + sparse.diags(np.asarray(abs(A).sum(axis=1)).ravel() + 1.0)).tocsr()
        precond = draw(st.sampled_from(["none", "jacobi", "block"]))
    return dict(
        A=A,
        B=rng.normal(size=(n, 2)),
        x0s=[rng.normal(size=n) if draw(st.booleans()) else None for _ in range(2)],
        precond=precond,
        n_blocks=draw(st.integers(1, 4)),
        tol=draw(st.sampled_from([1e-3, 1e-8, 1e-13])),
        restart=draw(st.integers(1, n + 3)),
        # Small budgets reach the non-converged and ``max_iter < restart`` exits.
        max_iter=draw(st.sampled_from([1, 2, 5, 17, 400])),
        raise_on_fail=draw(st.booleans()),
    )


class TestSerialCoreMatchesSeed:
    @settings(max_examples=120, deadline=None)
    @given(krylov_cases())
    def test_gmres_and_block_columns(self, case):
        A, B, x0s = case["A"], case["B"], case["x0s"]
        n = A.shape[0]
        M = {
            "none": lambda: None,
            "jacobi": lambda: JacobiPreconditioner(A),
            "block": lambda: block_jacobi(A, contiguous_ranges(n, case["n_blocks"])),
        }[case["precond"]]()
        args = (case["tol"], case["restart"], case["max_iter"], case["raise_on_fail"])
        expected = [
            outcome(lambda c=c: seed_gmres(A, B[:, c], x0s[c], M, *args, NULL_SPAN))
            for c in range(2)
        ]
        single = [
            outcome(lambda c=c: gmres(A, B[:, c], x0s[c], M, *args)) for c in range(2)
        ]
        assert single == expected


class TestDistributedCoreMatchesSeed:
    @settings(max_examples=120, deadline=None)
    @given(krylov_cases())
    def test_gmres_telemetry_and_block_columns(self, case):
        A, B, x0s = case["A"], case["B"], case["x0s"]
        n = A.shape[0]
        ranges = contiguous_ranges(n, case["n_blocks"])
        matrix = RowBlockMatrix.from_csr(A, ranges)
        if case["precond"] == "none":
            M = None
        else:
            M = DistributedBlockJacobi(matrix, factorization="lu")
        kwargs = dict(tol=case["tol"], restart=case["restart"],
                      max_iter=case["max_iter"], raise_on_fail=case["raise_on_fail"])

        def charged(solve):
            cluster = VirtualCluster(DEEP_FLOW, len(ranges))
            with cluster.phase("solve"):
                result = outcome(lambda: solve(cluster))
            return result, (
                cluster.flops_total, cluster.bytes_total, cluster.messages_total,
                cluster.phase_seconds("solve"), cluster.clocks.tobytes(),
                cluster.compute_seconds_rank.tobytes(),
                cluster.comm_seconds_rank.tobytes(),
            )

        for c in range(2):
            seed = charged(lambda tel, c=c: seed_distributed_gmres(
                matrix, B[:, c], M, x0s[c], kwargs["tol"], kwargs["restart"],
                kwargs["max_iter"], tel, kwargs["raise_on_fail"], NULL_SPAN,
            ))
            core = charged(lambda tel, c=c: distributed_gmres(
                matrix, B[:, c], M, x0s[c], telemetry=tel, **kwargs
            ))
            assert core == seed


def _spd_system(n=24, seed=5):
    rng = np.random.default_rng(seed)
    A = sparse.random(n, n, density=0.2, random_state=rng, format="csr")
    A = (A + A.T + sparse.eye(n) * n).tocsr()
    return A, rng.normal(size=n)


def _row_blocks(A, n_ranks=3):
    return RowBlockMatrix.from_csr(A, contiguous_ranges(A.shape[0], n_ranks))


#: The three Krylov entry points behind one calling convention. ``restart``
#: is ignored by CG.
ENTRY_POINTS = {
    "gmres": lambda A, b, x0, **kw: gmres(A, b, x0, **kw),
    "distributed_gmres": lambda A, b, x0, **kw: distributed_gmres(
        _row_blocks(A), b, None, x0, **kw
    ),
    "cg": lambda A, b, x0, restart=None, **kw: conjugate_gradient(A, b, x0, **kw),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
class TestEveryEntryPointValidatesAlike:
    """One validation, three doors (``distributed_gmres`` used to accept ``tol <= 0``)."""

    def test_b_shape(self, entry):
        A, b = _spd_system()
        with pytest.raises(ShapeError):
            ENTRY_POINTS[entry](A, np.ones(len(b) + 1), None)

    def test_restart_below_one(self, entry):
        if "cg" in entry:
            pytest.skip("CG has no restart")
        A, b = _spd_system()
        with pytest.raises(ValidationError, match="restart"):
            ENTRY_POINTS[entry](A, b, None, restart=0)

    @pytest.mark.parametrize("tol", [0.0, -1e-8])
    def test_non_positive_tol(self, entry, tol):
        A, b = _spd_system()
        with pytest.raises(ValidationError, match="tol must be > 0"):
            ENTRY_POINTS[entry](A, b, None, tol=tol)

    def test_non_finite_b(self, entry):
        A, b = _spd_system()
        b[3] = np.nan
        with pytest.raises(ValidationError, match="b contains 1 non-finite"):
            ENTRY_POINTS[entry](A, b, None)

    def test_x0_shape(self, entry):
        A, b = _spd_system()
        with pytest.raises(ShapeError):
            ENTRY_POINTS[entry](A, b, np.zeros(len(b) - 1))

    def test_non_finite_x0(self, entry):
        A, b = _spd_system()
        x0 = np.zeros(len(b))
        x0[[1, 2]] = np.inf
        with pytest.raises(ValidationError, match="x0 contains 2 non-finite"):
            ENTRY_POINTS[entry](A, b, x0)

    def test_zero_rhs_returns_fresh_zeros(self, entry):
        A, b = _spd_system()
        x0 = np.ones(len(b))
        result = ENTRY_POINTS[entry](A, np.zeros(len(b)), x0)
        assert result.converged and result.iterations == 0
        assert result.history == [0.0]
        assert np.array_equal(result.x, np.zeros(len(b)))
        assert result.x is not x0 and np.array_equal(x0, np.ones(len(b)))

    def test_convergence_error_names_the_entry_point(self, entry):
        A, b = _spd_system()
        with pytest.raises(ConvergenceError) as info:
            ENTRY_POINTS[entry](A, b, None, tol=1e-14, max_iter=1, raise_on_fail=True)
        assert info.value.solver == entry
        assert info.value.iterations == 1


class TestSpans:
    def _events(self, span):
        return [(name, attrs) for _, name, attrs in span.events]

    def test_serial_span_has_one_restart_event_per_cycle(self):
        A, b = _spd_system(n=40)
        seed_span = RecordingSpan()
        expected = seed_gmres(A, b, None, None, 1e-12, 3, 2000, False, seed_span)
        tracer = Tracer()
        with use_tracer(tracer):
            result = gmres(A, b, tol=1e-12, restart=3)
        (span,) = [s for s in tracer.finished() if s.name == "gmres"]
        assert self._events(span) == seed_span.events
        assert [a["cycle"] for _, a in seed_span.events] == list(
            range(1, len(seed_span.events) + 1)
        )
        assert len(seed_span.events) >= expected.restarts > 2
        assert span.attrs["restarts"] == result.restarts == expected.restarts
        assert span.attrs["iterations"] == result.iterations

    @pytest.mark.parametrize("preconditioned", [True, False])
    def test_distributed_span_counts_preconditioner_applications(self, preconditioned):
        A, b = _spd_system(n=40)
        matrix = _row_blocks(A)
        M = DistributedBlockJacobi(matrix, factorization="lu") if preconditioned else None
        seed_span = RecordingSpan()
        seed_distributed_gmres(
            matrix, b, M, None, 1e-12, 3, 3000, NullTelemetry(), False, seed_span
        )
        tracer = Tracer()
        with use_tracer(tracer):
            result = distributed_gmres(matrix, b, M, tol=1e-12, restart=3)
        (span,) = [s for s in tracer.finished() if s.name == "gmres"]
        assert span.attrs["distributed"] is True
        assert self._events(span) == seed_span.events
        assert (
            span.attrs["preconditioner_applications"]
            == seed_span.attrs["preconditioner_applications"]
            # b, then one per iteration and one per cycle's residual.
            == 1 + result.iterations + len(seed_span.events)
        )

    def test_cg_span_carries_its_convergence_curve(self):
        A, b = _spd_system(n=40)
        tol = 1e-10
        tracer = Tracer()
        with use_tracer(tracer):
            result = conjugate_gradient(A, b, tol=tol)
        (span,) = [s for s in tracer.finished() if s.name == "cg"]
        assert result.converged and result.iterations > 1
        assert span.attrs["target"] == tol * float(np.linalg.norm(b))
        assert span.attrs["residual_history"] == result.history
        assert span.attrs["restarts"] == 0
        assert span.attrs["iterations"] == result.iterations
