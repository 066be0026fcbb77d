"""Batched multi-RHS Krylov solvers (block GMRES / block CG).

``block_gmres`` and ``block_conjugate_gradient`` solve ``A x_c = B[:, c]``
for every column of a dense right-hand-side block against one operator
and one (already factorized) preconditioner. Per-column results are
**bit-identical** to running the single-vector solvers column by column
with the same initial guesses, because each column runs the exact
single-vector arithmetic as a coroutine that yields its matvec and
preconditioner applications to a driver, and the driver executes each
round's requests as ONE batched operation whose per-column outputs are
bit-identical to the single-vector kernels (``ComputeBackend.csr_matmat``
and ``BlockApply.many`` contracts). The win is economic: the sparse
matrix and the block LU factors are streamed through memory once per
Krylov round for all still-active columns instead of once per column.

Columns are never forced into lockstep — each restarts, breaks down, or
converges on its own schedule; the driver just batches whatever requests
happen to be pending in a round.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.obs.trace import NULL_SPAN, get_tracer
from repro.solver.cg import cg_requests
from repro.solver.gmres import GMRESResult, SerialReduction, gmres_requests
from repro.solver.operator import AsOperator, MatrixOperator
from repro.solver.preconditioner import IdentityPreconditioner
from repro.util import ShapeError, ValidationError


def batched_matvec(operator, X: np.ndarray) -> np.ndarray:
    """``Y = A @ X`` with per-column bit-identity to ``A.matvec(X[:, c])``.

    CSR-backed :class:`MatrixOperator` goes through the backend's
    ``csr_matmat`` kernel; operators exposing ``matmat`` use it;
    anything else falls back to a per-column matvec loop over
    contiguous copies.
    """
    if isinstance(operator, MatrixOperator) and sparse.issparse(operator.matrix) \
            and operator.matrix.format == "csr":
        from repro.backend import get_backend

        return get_backend().csr_matmat(operator.matrix, X)
    matmat = getattr(operator, "matmat", None)
    if matmat is not None:
        return matmat(X)
    out = np.empty_like(X)
    for c in range(X.shape[1]):
        out[:, c] = operator.matvec(np.ascontiguousarray(X[:, c]))
    return out


def batched_precond(preconditioner, R: np.ndarray, *context) -> np.ndarray:
    """``Z[:, c] = M.solve(R[:, c])``, batched when the type supports it.

    ``context`` (the distributed preconditioners' telemetry) is passed
    through to ``solve_many`` / ``solve``.
    """
    solve_many = getattr(preconditioner, "solve_many", None)
    if solve_many is not None:
        return solve_many(R, *context)
    out = np.empty_like(R)
    for c in range(R.shape[1]):
        out[:, c] = preconditioner.solve(np.ascontiguousarray(R[:, c]), *context)
    return out


def run_request_columns(columns, matvec, precond, isolate: bool = False):
    """Drive request coroutines to completion with batched operations.

    Each round gathers every active column's pending ``(op, vector)``
    request, groups by operation, executes each group as one batched
    ``matvec``/``precond`` call over a stacked ``(n, k)`` block, and
    feeds per-column results back as contiguous vectors. Returns the
    coroutine return values in input order. With ``isolate=True`` a
    column that raises stores its exception in its result slot and the
    remaining columns continue; otherwise the exception propagates.
    """
    results: list = [None] * len(columns)
    pending: dict[int, tuple[str, np.ndarray]] = {}

    def advance(idx, sender):
        try:
            pending[idx] = sender()
        except StopIteration as stop:
            results[idx] = stop.value
        except Exception as exc:
            if not isolate:
                raise
            results[idx] = exc

    for idx, gen in enumerate(columns):
        advance(idx, lambda gen=gen: next(gen))
    while pending:
        answers: dict[int, np.ndarray] = {}
        for op, batched in (("matvec", matvec), ("precond", precond)):
            group = [idx for idx, (kind, _) in pending.items() if kind == op]
            if not group:
                continue
            stacked = np.empty((pending[group[0]][1].shape[0], len(group)))
            for j, idx in enumerate(group):
                stacked[:, j] = pending[idx][1]
            out = batched(stacked)
            for j, idx in enumerate(group):
                answers[idx] = np.ascontiguousarray(out[:, j])
        pending = {}
        for idx, answer in answers.items():
            advance(idx, lambda idx=idx, answer=answer: columns[idx].send(answer))
    return results


def run_block(name, n, B, x0s, column, matvec, precond, isolate, **span_attrs):
    """Solve every column of ``B`` with one request coroutine per column.

    ``column(b, x0)`` builds a column's coroutine
    (:func:`repro.solver.gmres.gmres_requests` or
    :func:`repro.solver.cg.cg_requests`); ``matvec``/``precond`` are the
    batched ``(n, k)`` kernels :func:`run_request_columns` drives. The
    solve runs inside a ``name`` span summarising the columns.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != n:
        raise ShapeError(f"B must be ({n}, m), got {B.shape}")
    m = B.shape[1]
    if x0s is None:
        x0s = [None] * m
    if len(x0s) != m:
        raise ValidationError(f"x0s must have {m} entries, got {len(x0s)}")
    columns = [
        column(np.ascontiguousarray(B[:, c]), x0) for c, x0 in enumerate(x0s)
    ]
    with get_tracer().span(name, kind="solver", n_rhs=m, **span_attrs) as span:
        results = run_request_columns(columns, matvec, precond, isolate=isolate)
        solved = [r for r in results if isinstance(r, GMRESResult)]
        span.set(
            iterations=int(sum(r.iterations for r in solved)),
            restarts=int(sum(r.restarts for r in solved)),
            residual=float(max((r.residual_norm for r in solved), default=0.0)),
            converged=bool(solved) and all(r.converged for r in solved),
            failed_columns=int(m - len(solved)),
        )
        return results


def block_gmres(
    operator,
    B: np.ndarray,
    x0s=None,
    preconditioner=None,
    tol: float = 1e-8,
    restart: int = 30,
    max_iter: int = 2000,
    raise_on_fail: bool = False,
    isolate_errors: bool = False,
) -> list:
    """Solve ``A x_c = B[:, c]`` for every column with batched GMRES.

    Parameters match :func:`repro.solver.gmres` except ``B`` is a dense
    ``(n, m)`` right-hand-side block and ``x0s`` an optional sequence of
    ``m`` per-column initial guesses (``None`` entries start cold). The
    one preconditioner is applied to all columns — callers batch systems
    that share the operator (same preoperative mesh), which is exactly
    what makes the factor reuse profitable.

    Returns ``m`` :class:`GMRESResult` records in column order, each
    bit-identical to the corresponding single-vector :func:`gmres` call.
    With ``isolate_errors=True`` a failing column's slot holds the
    raised exception instead of aborting the batch.
    """
    A = AsOperator(operator)
    n = A.shape[0]
    M = preconditioner if preconditioner is not None else IdentityPreconditioner(n)
    reduction = SerialReduction()
    return run_block(
        "block_gmres", n, B, x0s,
        lambda b, x0: gmres_requests(
            n, b, x0, tol, restart, max_iter, raise_on_fail,
            reduction, NULL_SPAN, "block_gmres",
        ),
        lambda X: batched_matvec(A, X),
        lambda R: batched_precond(M, R),
        isolate_errors,
        tol=tol,
    )


def block_conjugate_gradient(
    operator,
    B: np.ndarray,
    x0s=None,
    preconditioner=None,
    tol: float = 1e-8,
    max_iter: int = 5000,
    raise_on_fail: bool = False,
    isolate_errors: bool = False,
) -> list:
    """Solve SPD ``A x_c = B[:, c]`` for every column with batched CG.

    The multi-RHS analogue of :func:`repro.solver.conjugate_gradient`,
    with the same per-column bit-identity and error-isolation contract
    as :func:`block_gmres`.
    """
    A = AsOperator(operator)
    n = A.shape[0]
    M = preconditioner if preconditioner is not None else IdentityPreconditioner(n)
    return run_block(
        "block_cg", n, B, x0s,
        lambda b, x0: cg_requests(n, b, x0, tol, max_iter, raise_on_fail, "block_cg"),
        lambda X: batched_matvec(A, X),
        lambda R: batched_precond(M, R),
        isolate_errors,
        tol=tol,
    )
