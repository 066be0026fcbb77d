"""Preconditioned conjugate gradients.

The reduced elasticity system is symmetric positive definite, and so is
the pipeline's preconditioner (:data:`repro.parallel.solver.PIPELINE_PRECONDITIONER`),
so the pipeline solves with CG at every rank count; the paper's GMRES
configurations (``block_jacobi``, ``ras``) keep GMRES. The recurrence is
written once, as the plain function :func:`cg_loop`, which calls the
``matvec`` and ``precond`` callables it is handed and delegates dots and
norms to a *reduction* — the same shape as
:func:`repro.solver.gmres.gmres_loop`. Serial :func:`conjugate_gradient`
is that loop with :class:`repro.solver.gmres.SerialReduction`;
:func:`repro.parallel.distributed_cg` is the same loop with the per-rank
reduction, which charges every dot's all-reduce to the virtual clock.
"""

from __future__ import annotations

import numpy as np

from repro.obs.trace import get_tracer
from repro.solver.gmres import (
    GMRESResult,
    SerialReduction,
    checked_system,
    convergence_attrs,
)
from repro.solver.operator import AsOperator
from repro.solver.preconditioner import IdentityPreconditioner
from repro.util import ConvergenceError


def conjugate_gradient(
    operator,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    preconditioner=None,
    tol: float = 1e-8,
    max_iter: int = 5000,
    raise_on_fail: bool = False,
) -> GMRESResult:
    """Solve SPD ``A x = b`` with preconditioned CG.

    Returns the same result record type as :func:`repro.solver.gmres` so
    callers can switch solvers freely; ``restarts`` is always 0.

    ``x0`` is the initial guess (parity with the GMRES path): the
    convergence target ``tol * ||b||`` does not depend on it.

    A zero right-hand side short-circuits exactly like
    :func:`repro.solver.gmres`: ``x0`` is shape-validated but the
    returned solution is the zero vector with ``history == [0.0]``.

    When the ambient :class:`repro.obs.Tracer` is enabled, the solve is
    wrapped in a ``cg`` span carrying the same convergence attributes as
    a ``gmres`` span (:func:`repro.solver.gmres.convergence_attrs`).
    It stops on the true residual, ``||b - A x|| <= tol * ||b||``.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return _cg(operator, b, x0, preconditioner, tol, max_iter, raise_on_fail)
    with tracer.span("cg", kind="solver", tol=tol) as span:
        result = _cg(operator, b, x0, preconditioner, tol, max_iter, raise_on_fail)
        span.set(**convergence_attrs(result, tol))
        return result


def _cg(
    operator,
    b: np.ndarray,
    x0: np.ndarray | None,
    preconditioner,
    tol: float,
    max_iter: int,
    raise_on_fail: bool,
) -> GMRESResult:
    A = AsOperator(operator)
    n = A.shape[0]
    M = preconditioner if preconditioner is not None else IdentityPreconditioner(n)
    return cg_loop(
        n, b, x0, tol, max_iter, raise_on_fail, A.matvec, M.solve, SerialReduction(), "cg"
    )


def cg_loop(
    n: int,
    b: np.ndarray,
    x0: np.ndarray | None,
    tol: float,
    max_iter: int,
    raise_on_fail: bool,
    matvec,
    precond,
    reduction,
    solver: str,
) -> GMRESResult:
    """The preconditioned CG recurrence.

    ``matvec(v)`` returns ``A v`` and ``precond(r)`` returns
    ``M^{-1} r``. Every CG entry point of the package is this loop with a
    ``reduction`` that takes dots and norms and charges vector passes
    (:class:`repro.solver.gmres.SerialReduction` or
    :class:`repro.parallel.solver.RankReduction`: an iteration is three
    reductions and three axpy passes). It stops when the recurrence's
    residual reaches ``tol * ||b||``; ``solver`` labels a
    :class:`ConvergenceError`.
    """
    b, x = checked_system(n, b, x0, tol)

    b_norm = reduction.norm(b)
    if b_norm == 0.0:
        # Zero RHS: exact solution is zero regardless of the (already
        # shape-validated) x0 — same contract as repro.solver.gmres.
        return GMRESResult(np.zeros_like(x), True, 0, 0, 0.0, [0.0])
    r = b - matvec(x)
    reduction.axpy_cost()  # b - Ax
    z = precond(r)
    p = z.copy()
    rz = reduction.dot(r, z)
    target = tol * b_norm
    history = [reduction.norm(r)]

    for it in range(1, max_iter + 1):
        Ap = matvec(p)
        pAp = reduction.dot(p, Ap)
        if pAp <= 0:
            raise ConvergenceError(
                "CG encountered a non-positive curvature direction: operator is not SPD",
                iterations=it,
                residual=history[-1],
                solver=solver,
            )
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        reduction.axpy_cost(2)
        rn = reduction.norm(r)
        history.append(rn)
        if rn <= target:
            return GMRESResult(x, True, it, 0, rn, history, b_norm)
        z = precond(r)
        rz_new = reduction.dot(r, z)
        p = z + (rz_new / rz) * p
        reduction.axpy_cost()
        rz = rz_new

    if raise_on_fail:
        raise ConvergenceError(
            f"CG failed to reach tol={tol} in {max_iter} iterations",
            iterations=max_iter,
            residual=history[-1],
            solver=solver,
        )
    return GMRESResult(x, False, max_iter, 0, history[-1], history, b_norm)
