"""Restarted GMRES (Generalized Minimal Residual).

Arnoldi, Givens-rotation updates of the Hessenberg least-squares
problem, left preconditioning, and restarts — the solver configuration
the paper runs through PETSc. The loop is written once, as the plain
function :func:`gmres_loop`: it calls the ``matvec`` and ``precond``
callables it is handed and delegates norms and orthogonalisation to a
*reduction*. Serial :func:`gmres` is that loop with
:class:`SerialReduction` (modified Gram-Schmidt);
:func:`repro.parallel.distributed_gmres` is the same loop with the
per-rank reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.trace import NULL_SPAN, get_tracer
from repro.solver.operator import AsOperator
from repro.solver.preconditioner import IdentityPreconditioner
from repro.util import ConvergenceError, ShapeError, ValidationError

#: Relative tolerance of every *production* solve of the package — the
#: pipeline (``PipelineConfig.solver_tol``), the escalation ladder, the
#: coarse fallback, ``simulate_parallel`` / ``distributed_gmres`` /
#: ``distributed_cg`` and the Fig. 7-9 experiments: PETSc's ``-ksp_rtol``
#: default, which is what the paper's GMRES + block Jacobi ran at (it
#: names no convergence setting). It is relative, and each method reads
#: it on its own residual. GMRES (``block_jacobi``, ``ras``) stops on the
#: left-preconditioned one, ``||M^{-1}(b - A x)|| <= tol * ||M^{-1} b||``;
#: CG (the pipeline's preconditioner, at every rank count) on the true
#: one, ``||b - A x|| <= tol * ||b||``. Measured with GMRES against a
#: ``1e-10`` solve (``benchmarks/BENCH_solver_tolerance.json``,
#: EXPERIMENTS.md "Solver tolerance"): max nodal |du| 0.4-0.5 um on the
#: 22.8 k-equation, 4-rank benchmark system and 1.4 um at paper size (77 k
#: equations, 16 ranks), against 0.9-3 mm voxels; ``1e-7`` buys 0.004 um
#: for half as many iterations again. CG's field at ``1e-5`` is no further
#: from a direct solve than GMRES's (``tests/test_fsai.py::TestCG``). The
#: generic library entry points (:func:`gmres`, ``conjugate_gradient``)
#: keep their own ``1e-8``.
DEFAULT_SOLVER_TOL = 1e-5


@dataclass
class GMRESResult:
    """Solution and convergence record of a GMRES run.

    Attributes
    ----------
    x:
        Solution vector.
    converged:
        Whether the (preconditioned) residual tolerance was met.
    iterations:
        Total inner iterations performed.
    restarts:
        Number of restart cycles started.
    residual_norm:
        Final preconditioned residual norm.
    history:
        Preconditioned residual norm after every inner iteration.
    rhs_norm:
        The norm the tolerance is relative to (``||M^{-1} b||`` for
        GMRES, ``||b||`` for CG); ``0.0`` where there is none — a zero
        right-hand side, a direct solve, a restored record.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    restarts: int
    residual_norm: float
    history: list[float] = field(default_factory=list)
    rhs_norm: float = 0.0


def gmres(
    operator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner=None,
    tol: float = 1e-8,
    restart: int = 30,
    max_iter: int = 2000,
    raise_on_fail: bool = False,
) -> GMRESResult:
    """Solve ``A x = b`` with left-preconditioned restarted GMRES.

    Parameters
    ----------
    operator:
        Square matrix or LinearOperator.
    preconditioner:
        Object with ``solve(r)`` approximating ``A^{-1} r``; defaults to
        identity.
    tol:
        Relative tolerance on the preconditioned residual norm
        ``||M^{-1}(b - A x)|| / ||M^{-1} b||``.
    restart:
        Krylov subspace dimension per cycle (GMRES(restart)).
    max_iter:
        Total inner-iteration budget across restarts.
    raise_on_fail:
        Raise :class:`ConvergenceError` instead of returning a
        non-converged result.

    Notes
    -----
    A zero right-hand side (``||M^{-1} b|| == 0``) short-circuits: the
    exact solution of the (nonsingular) system is the zero vector, so
    the result is ``x = 0`` regardless of ``x0`` (which is still
    shape-validated), with ``iterations == 0`` and ``history == [0.0]``
    (the single entry is the already-converged initial residual of the
    returned solution).

    When the ambient :class:`repro.obs.Tracer` is enabled, the solve is
    wrapped in a ``gmres`` span carrying one ``restart`` event per
    cycle (with the cycle's starting residual) and final convergence
    attributes (:func:`convergence_attrs`); a disabled tracer costs one
    attribute check.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return _gmres(
            operator, b, x0, preconditioner, tol, restart, max_iter,
            raise_on_fail, NULL_SPAN,
        )
    with tracer.span("gmres", kind="solver", tol=tol, restart=restart) as span:
        result = _gmres(
            operator, b, x0, preconditioner, tol, restart, max_iter,
            raise_on_fail, span,
        )
        span.set(**convergence_attrs(result, tol))
        return result


def convergence_attrs(result: GMRESResult, tol: float) -> dict:
    """What a finished ``gmres`` or ``cg`` span says about its solve.

    ``target`` is the absolute residual the run had to reach and
    ``residual_history`` the whole curve (:attr:`GMRESResult.history`, a
    few hundred floats at most), so a trace shows how the solve got
    there and not only where it stopped.
    """
    return {
        "iterations": result.iterations,
        "restarts": result.restarts,
        "residual": result.residual_norm,
        "converged": result.converged,
        "target": tol * result.rhs_norm,
        "residual_history": result.history,
    }


def _gmres(
    operator,
    b: np.ndarray,
    x0: np.ndarray | None,
    preconditioner,
    tol: float,
    restart: int,
    max_iter: int,
    raise_on_fail: bool,
    span,
) -> GMRESResult:
    A = AsOperator(operator)
    n = A.shape[0]
    M = preconditioner if preconditioner is not None else IdentityPreconditioner(n)
    return gmres_loop(
        n, b, x0, tol, restart, max_iter, raise_on_fail,
        A.matvec, M.solve, SerialReduction(), span, "gmres",
    )


def checked_system(n: int, b, x0, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Validate one right-hand side; return ``(b, x)`` with ``x`` a fresh start vector."""
    b = np.asarray(b, dtype=float).ravel()
    if b.shape != (n,):
        raise ShapeError(f"b must be ({n},), got {b.shape}")
    if tol <= 0:
        raise ValidationError(f"tol must be > 0, got {tol}")
    if not np.all(np.isfinite(b)):
        raise ValidationError(
            f"b contains {int(np.count_nonzero(~np.isfinite(b)))} non-finite entries"
        )
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise ShapeError(f"x0 must be ({n},), got {x.shape}")
    if x0 is not None and not np.all(np.isfinite(x)):
        raise ValidationError(
            f"x0 contains {int(np.count_nonzero(~np.isfinite(x)))} non-finite entries"
        )
    return b, x


class SerialReduction:
    """Vector reductions of the Krylov loops in one address space.

    Modified Gram-Schmidt, ``np.dot`` and ``np.linalg.norm``, charging
    nothing. The per-rank counterpart (fused CGS2 and per-rank partial
    sums with telemetry charges) is
    :class:`repro.parallel.solver.RankReduction`.
    """

    def norm(self, v: np.ndarray) -> float:
        return float(np.linalg.norm(v))

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.dot(u, v))

    def orthogonalize(self, V: np.ndarray, H: np.ndarray, k: int, w: np.ndarray) -> np.ndarray:
        """Orthogonalise ``w`` against ``V[:k+1]`` into ``H[:k+1, k]``; returns ``w``."""
        for i in range(k + 1):
            H[i, k] = float(np.dot(w, V[i]))
            w -= H[i, k] * V[i]
        return w

    def axpy_cost(self, n_vectors: int = 1) -> None:
        """Charge ``n_vectors`` axpy/scale passes (free in one address space)."""


def gmres_loop(
    n: int,
    b: np.ndarray,
    x0: np.ndarray | None,
    tol: float,
    restart: int,
    max_iter: int,
    raise_on_fail: bool,
    matvec,
    precond,
    reduction,
    span,
    solver: str,
) -> GMRESResult:
    """The restarted Arnoldi/Givens loop.

    ``matvec(v)`` returns ``A v`` and ``precond(r)`` returns
    ``M^{-1} r``. Every GMRES entry point of the package is this loop
    with a ``reduction`` that norms and orthogonalises
    (:class:`SerialReduction` or
    :class:`repro.parallel.solver.RankReduction`). ``span`` receives one
    ``restart`` event per cycle; ``solver`` labels a
    :class:`ConvergenceError`.
    """
    if restart < 1:
        raise ValidationError(f"restart must be >= 1, got {restart}")
    b, x = checked_system(n, b, x0, tol)

    b_pre_norm = reduction.norm(precond(b))
    if b_pre_norm == 0.0:
        # Zero RHS: the exact solution is zero whatever x0 was (x0 has
        # already been shape-validated above). Return a fresh zero
        # vector of the x0 shape, never x0 itself (see gmres docstring).
        return GMRESResult(np.zeros_like(x), True, 0, 0, 0.0, [0.0])
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
        r = precond(b - matvec(x))
        reduction.axpy_cost()  # b - Ax
        beta = reduction.norm(r)
        history.append(beta)
        span.event("restart", cycle=restarts, residual=beta, iteration=total_iters)
        if beta <= target:
            return GMRESResult(x, True, total_iters, restarts - 1, beta, history, b_pre_norm)

        m = min(restart, max_iter - total_iters)
        V[0] = r / beta
        g[0] = beta
        k_used = 0
        breakdown = False

        for k in range(m):
            w = reduction.orthogonalize(V, H, k, precond(matvec(V[k])))
            h_next = reduction.norm(w)
            H[k + 1, k] = h_next
            if h_next > 1e-14 * beta:
                V[k + 1] = w / h_next
                reduction.axpy_cost()
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
        reduction.axpy_cost(k_used)

        if breakdown:
            # The Givens estimate is unreliable after a breakdown; check
            # the true residual and stop (restarting cannot improve a
            # stagnated singular system).
            final = reduction.norm(precond(b - matvec(x)))
            history.append(final)
            if raise_on_fail and final > target:
                raise ConvergenceError(
                    "GMRES breakdown: Krylov space exhausted before reaching the "
                    f"tolerance (relative residual {final / b_pre_norm:.3e}); "
                    "the operator may be singular",
                    iterations=total_iters,
                    residual=final,
                    solver=solver,
                )
            return GMRESResult(
                x, final <= target, total_iters, restarts, final, history, b_pre_norm
            )

        final = abs(g[k_used])
        if final <= target:
            return GMRESResult(x, True, total_iters, restarts, final, history, b_pre_norm)

    final = reduction.norm(precond(b - matvec(x)))
    if raise_on_fail:
        raise ConvergenceError(
            f"GMRES failed to reach tol={tol} in {total_iters} iterations "
            f"(residual {final / b_pre_norm:.3e} relative)",
            iterations=total_iters,
            residual=final,
            solver=solver,
        )
    return GMRESResult(x, final <= target, total_iters, restarts, final, history, b_pre_norm)
