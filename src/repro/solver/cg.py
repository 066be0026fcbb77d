"""Preconditioned conjugate gradients.

The reduced elasticity system is symmetric positive definite, so CG is a
natural cross-check (and ablation comparator) for the paper's GMRES
choice. The recurrence is written once, as the plain function
:func:`cg_loop`, which calls the ``matvec`` and ``precond`` callables it
is handed — the same shape as :func:`repro.solver.gmres.gmres_loop`.
"""

from __future__ import annotations

import numpy as np

from repro.obs.trace import get_tracer
from repro.solver.gmres import GMRESResult, checked_system, convergence_attrs
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

    ``x0`` warm-starts the iteration (parity with the GMRES path): the
    convergence target ``tol * ||b||`` does not depend on the initial
    guess, so a good ``x0`` — e.g. the previous intraoperative scan's
    solution — strictly shrinks the number of iterations required.

    A zero right-hand side short-circuits exactly like
    :func:`repro.solver.gmres`: ``x0`` is shape-validated but the
    returned solution is the zero vector with ``history == [0.0]``.

    When the ambient :class:`repro.obs.Tracer` is enabled, the solve is
    wrapped in a ``cg`` span carrying the same convergence attributes as
    a ``gmres`` span (:func:`repro.solver.gmres.convergence_attrs`).
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
    return cg_loop(n, b, x0, tol, max_iter, raise_on_fail, A.matvec, M.solve, "cg")


def cg_loop(
    n: int,
    b: np.ndarray,
    x0: np.ndarray | None,
    tol: float,
    max_iter: int,
    raise_on_fail: bool,
    matvec,
    precond,
    solver: str,
) -> GMRESResult:
    """The preconditioned CG recurrence.

    ``matvec(v)`` returns ``A v`` and ``precond(r)`` returns
    ``M^{-1} r``; ``solver`` labels a :class:`ConvergenceError`.
    """
    b, x = checked_system(n, b, x0, tol)

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        # Zero RHS: exact solution is zero regardless of the (already
        # shape-validated) x0 — same contract as repro.solver.gmres.
        return GMRESResult(np.zeros_like(x), True, 0, 0, 0.0, [0.0])
    r = b - matvec(x)
    z = precond(r)
    p = z.copy()
    rz = float(np.dot(r, z))
    target = tol * b_norm
    history = [float(np.linalg.norm(r))]

    for it in range(1, max_iter + 1):
        Ap = matvec(p)
        pAp = float(np.dot(p, Ap))
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
        rn = float(np.linalg.norm(r))
        history.append(rn)
        if rn <= target:
            return GMRESResult(x, True, it, 0, rn, history, b_norm)
        z = precond(r)
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new

    if raise_on_fail:
        raise ConvergenceError(
            f"CG failed to reach tol={tol} in {max_iter} iterations",
            iterations=max_iter,
            residual=history[-1],
            solver=solver,
        )
    return GMRESResult(x, False, max_iter, 0, history[-1], history, b_norm)
