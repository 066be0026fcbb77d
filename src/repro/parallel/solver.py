"""Distributed GMRES with block-Jacobi preconditioning.

The virtual-parallel counterpart of :mod:`repro.solver.gmres`:
identical mathematics, but every operation is decomposed by rank and
reported to the telemetry — local matvec flops, halo bytes, per-block
LU factorization and triangular solves, partial dot products and the
scalar allreduces that synchronize them. Orthogonalization is classical
Gram-Schmidt with one refinement pass (CGS2): two fused reductions per
iteration, the strategy parallel GMRES implementations (including
PETSc's) use to avoid one allreduce per inner product.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import linalg as spla

from repro.backend import get_backend
from repro.machines.cost import NullTelemetry
from repro.obs.trace import NULL_SPAN, get_tracer
from repro.parallel.distributed import (
    RowBlockMatrix,
    distributed_axpy_cost,
    distributed_norm,
)
from repro.solver.block import _ask, run_request_columns
from repro.solver.gmres import GMRESResult
from repro.solver.preconditioner import incomplete_factor
from repro.solver.schwarz import grow_subdomain
from repro.util import ConvergenceError, ShapeError, ValidationError

_NULL = NullTelemetry()

#: Estimated flops per nonzero of an LU factor for the sparse
#: factorization itself (setup cost, charged once per solve).
FACTOR_FLOPS_PER_NNZ = 12.0
#: Flops per factor nonzero for one forward+backward triangular solve.
SOLVE_FLOPS_PER_NNZ = 4.0


class DistributedBlockJacobi:
    """One incompletely-factorized diagonal block per rank.

    Application is embarrassingly parallel (no communication) — the
    property that makes block Jacobi the default distributed
    preconditioner. Following PETSc's default (block Jacobi with ILU(0)
    sub-preconditioner, the configuration the paper ran), each diagonal
    block is factorized *incompletely* by default; pass
    ``factorization="lu"`` for exact block LU (used by small tests and
    the solver ablation). The approximation quality decreases as ranks
    are added (smaller blocks discard more coupling), so iteration
    counts grow mildly with CPU count, as observed in practice.

    SuperLU's threshold ILU (ILUTP) stands in for PETSc's ILU(0) — see
    :func:`repro.solver.preconditioner.incomplete_factor`. It is not an
    ILU(0): the drop threshold governs the factor, which holds about
    1.3-1.7x the block's own nonzeros (1.65x on the 4-rank, 22.8 k
    equation benchmark system); the fill cap is a safety bound that does
    not bind (DESIGN.md, substitutions).
    """

    def __init__(
        self,
        matrix: RowBlockMatrix,
        telemetry=_NULL,
        factorization: str = "ilu",
    ):
        if factorization not in ("ilu", "lu"):
            raise ValidationError(f"unknown factorization {factorization!r}")
        self._ranges = matrix.ranges
        self._factors = []
        factor_nnz = np.zeros(matrix.n_ranks)
        with get_tracer().span(
            "preconditioner setup",
            kind="solver",
            preconditioner="block_jacobi",
            factorization=factorization,
            n_ranks=int(matrix.n_ranks),
        ) as span:
            for rank, (a, b) in enumerate(matrix.ranges):
                block = matrix.local[rank][:, a:b].tocsc()
                lu = spla.splu(block) if factorization == "lu" else incomplete_factor(block)
                self._factors.append(lu)
                factor_nnz[rank] = lu.L.nnz + lu.U.nnz
            span.set(factor_nnz=float(factor_nnz.sum()))
        self._factor_nnz = factor_nnz
        telemetry.compute_all(FACTOR_FLOPS_PER_NNZ * factor_nnz)
        self.shape = matrix.shape
        # Backend-prepared block application + reused apply buffer (same
        # contract as the serial BlockJacobiPreconditioner: callers must
        # not hold the returned vector across solve calls).
        self._apply = get_backend().prepare_block_apply(
            [(int(a), int(b)) for a, b in self._ranges], self._factors
        )
        self._out = np.empty(matrix.n)

    def solve(self, r: np.ndarray, telemetry=_NULL) -> np.ndarray:
        telemetry.compute_all(SOLVE_FLOPS_PER_NNZ * self._factor_nnz)
        r = np.asarray(r, dtype=float)
        return self._apply(r, self._out)

    def solve_many(self, R: np.ndarray, telemetry=_NULL) -> np.ndarray:
        """Apply the block solves to every column of ``(n, m)`` ``R``.

        Each output column is bit-identical to :meth:`solve` of that
        column (the :meth:`repro.backend.BlockApply.many` contract); the
        factors are streamed once for all columns. Returns a fresh array
        (not the shared single-vector buffer).
        """
        R = np.asarray(R, dtype=float)
        telemetry.compute_all(SOLVE_FLOPS_PER_NNZ * self._factor_nnz * R.shape[1])
        out = np.empty_like(R)
        return self._apply.many(R, out)


class DistributedRAS:
    """Distributed restricted additive Schwarz with overlap.

    Each rank's subdomain is its owned rows grown by ``overlap``
    matrix-graph layers; applying the preconditioner requires importing
    the residual values of the overlap region from neighbouring ranks
    (charged to the telemetry as a halo exchange), then a local
    factorized solve restricted back to owned rows.
    """

    def __init__(
        self,
        matrix: RowBlockMatrix,
        telemetry=_NULL,
        overlap: int = 1,
    ):
        if overlap < 0:
            raise ValidationError(f"overlap must be >= 0, got {overlap}")
        csr = matrix.to_csr()
        stops = matrix.ranges[:, 1]
        self._owned = matrix.ranges
        self._subdomains: list[np.ndarray] = []
        self._own_positions: list[np.ndarray] = []
        self._factors = []
        factor_nnz = np.zeros(matrix.n_ranks)
        halo: dict[tuple[int, int], float] = {}
        with get_tracer().span(
            "preconditioner setup",
            kind="solver",
            preconditioner="ras",
            overlap=overlap,
            n_ranks=int(matrix.n_ranks),
        ) as span:
            for rank, (a, b) in enumerate(matrix.ranges):
                indices = np.arange(a, b, dtype=np.intp)
                grown = grow_subdomain(csr, indices, overlap)
                external = grown[(grown < a) | (grown >= b)]
                if len(external):
                    owners = np.searchsorted(stops, external, side="right")
                    for src, count in zip(*np.unique(owners, return_counts=True)):
                        halo[(int(src), rank)] = halo.get(
                            (int(src), rank), 0.0
                        ) + float(count * 8)
                block = csr[grown, :][:, grown].tocsc()
                lu = incomplete_factor(block)
                self._factors.append(lu)
                factor_nnz[rank] = lu.L.nnz + lu.U.nnz
                self._subdomains.append(grown)
                self._own_positions.append(np.searchsorted(grown, indices))
            span.set(factor_nnz=float(factor_nnz.sum()))
        self._factor_nnz = factor_nnz
        self._halo = halo
        telemetry.compute_all(FACTOR_FLOPS_PER_NNZ * factor_nnz)
        self.shape = matrix.shape
        self._out = np.empty(matrix.n)

    def solve(self, r: np.ndarray, telemetry=_NULL) -> np.ndarray:
        telemetry.halo_exchange(self._halo)
        telemetry.compute_all(SOLVE_FLOPS_PER_NNZ * self._factor_nnz)
        out = self._out
        for (a, b), subdomain, factor, own in zip(
            self._owned, self._subdomains, self._factors, self._own_positions
        ):
            local = factor.solve(r[subdomain])
            out[a:b] = local[own]
        return out

    def solve_many(self, R: np.ndarray, telemetry=_NULL) -> np.ndarray:
        """Column-by-column RAS application (no blocked fast path yet)."""
        R = np.asarray(R, dtype=float)
        out = np.empty_like(R)
        for c in range(R.shape[1]):
            out[:, c] = self.solve(np.ascontiguousarray(R[:, c]), telemetry)
        return out


def distributed_gmres(
    matrix: RowBlockMatrix,
    b: np.ndarray,
    preconditioner: DistributedBlockJacobi | None = None,
    x0: np.ndarray | None = None,
    tol: float = 1e-7,
    restart: int = 30,
    max_iter: int = 3000,
    telemetry=_NULL,
    raise_on_fail: bool = False,
) -> GMRESResult:
    """Left-preconditioned restarted GMRES over a row-block matrix.

    Mathematically equivalent to :func:`repro.solver.gmres` (up to the
    Gram-Schmidt variant); the telemetry records the parallel execution.
    Zero-RHS behaviour matches the serial solver: ``x0`` is
    shape-validated, the returned solution is zero, ``history`` is
    ``[0.0]``. Tracing mirrors the serial solver too: a ``gmres`` span
    with one ``restart`` event per cycle, plus a ``preconditioner
    applications`` count attribute.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return _distributed_gmres(
            matrix, b, preconditioner, x0, tol, restart, max_iter,
            telemetry, raise_on_fail, NULL_SPAN,
        )
    with tracer.span(
        "gmres", kind="solver", distributed=True, tol=tol, restart=restart
    ) as span:
        result = _distributed_gmres(
            matrix, b, preconditioner, x0, tol, restart, max_iter,
            telemetry, raise_on_fail, span,
        )
        span.set(
            iterations=result.iterations,
            restarts=result.restarts,
            residual=result.residual_norm,
            converged=result.converged,
        )
        return result


def _distributed_gmres(
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
) -> GMRESResult:
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
        return GMRESResult(np.zeros_like(x), True, 0, 0, 0.0, [0.0])
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
            return GMRESResult(x, True, total_iters, restarts - 1, beta, history)

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
            return GMRESResult(
                x, final <= target, total_iters, restarts, final, history
            )

        final = abs(g[k_used])
        if final <= target:
            return GMRESResult(x, True, total_iters, restarts, final, history)

    r = precond(b - matrix.matvec(x, telemetry))
    final = distributed_norm(r, ranges, telemetry)
    if raise_on_fail:
        raise ConvergenceError(
            f"distributed GMRES failed to reach tol={tol} in {total_iters} iterations",
            iterations=total_iters,
            residual=final,
            solver="distributed_gmres",
        )
    return GMRESResult(x, final <= target, total_iters, restarts, final, history)


# ---------------------------------------------------------------------------
# Batched multi-RHS solving. Each right-hand side runs the *exact*
# per-column GMRES arithmetic above as a coroutine that yields its two
# expensive operations — the distributed matvec and the preconditioner
# application — to a driver that executes them batched across all active
# columns (one matrix stream + one factor stream per round). Because the
# batched kernels are per-column bit-identical to their single-vector
# forms (the backend csr_matmat / BlockApply.many contracts), the
# batched solve returns bit-identical results to m independent
# distributed_gmres calls while paying the memory traffic once.
# ---------------------------------------------------------------------------


def _gmres_column(
    matrix, b, use_precond, x0, tol, restart, max_iter, telemetry, raise_on_fail
):
    """One right-hand side of the block solve, as a request coroutine.

    A line-for-line replica of :func:`_distributed_gmres` in which every
    ``matrix.matvec`` becomes ``yield ("matvec", v)`` and every
    preconditioner application becomes ``yield ("precond", r)`` — all
    other arithmetic (CGS2, Givens, norms) runs here on contiguous
    per-column vectors, exactly as in the serial path. Returns the
    column's :class:`GMRESResult` via ``StopIteration``.
    """
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

    lengths = (ranges[:, 1] - ranges[:, 0]).astype(float)

    def ortho_block(Vk: np.ndarray, w: np.ndarray) -> np.ndarray:
        k = Vk.shape[0]
        telemetry.compute_all(2.0 * k * lengths)
        h = Vk @ w
        telemetry.allreduce(8.0 * k)
        return h

    if use_precond:
        b_pre = yield from _ask("precond", b)
    else:
        b_pre = b.copy()
    b_pre_norm = distributed_norm(b_pre, ranges, telemetry)
    if b_pre_norm == 0.0:
        return GMRESResult(np.zeros_like(x), True, 0, 0, 0.0, [0.0])
    target = tol * b_pre_norm

    history: list[float] = []
    total_iters = 0
    restarts = 0

    m_cap = min(restart, max_iter)
    V = np.empty((m_cap + 1, n))
    H = np.zeros((m_cap + 1, m_cap))
    cs = np.empty(m_cap)
    sn = np.empty(m_cap)
    g = np.empty(m_cap + 1)

    while total_iters < max_iter:
        restarts += 1
        Ax = yield from _ask("matvec", x)
        if use_precond:
            r = yield from _ask("precond", b - Ax)
        else:
            r = b - Ax
        distributed_axpy_cost(ranges, telemetry)  # b - Ax
        beta = distributed_norm(r, ranges, telemetry)
        history.append(beta)
        if beta <= target:
            return GMRESResult(x, True, total_iters, restarts - 1, beta, history)

        m = min(restart, max_iter - total_iters)
        V[0] = r / beta
        g[0] = beta
        k_used = 0
        breakdown = False

        for k in range(m):
            Av = yield from _ask("matvec", V[k])
            if use_precond:
                w = yield from _ask("precond", Av)
            else:
                w = Av.copy()
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
            Ax = yield from _ask("matvec", x)
            if use_precond:
                r = yield from _ask("precond", b - Ax)
            else:
                r = b - Ax
            final = distributed_norm(r, ranges, telemetry)
            history.append(final)
            if raise_on_fail and final > target:
                raise ConvergenceError(
                    "distributed GMRES breakdown: Krylov space exhausted before "
                    "reaching the tolerance; the operator may be singular",
                    iterations=total_iters,
                    residual=final,
                    solver="distributed_block_gmres",
                )
            return GMRESResult(
                x, final <= target, total_iters, restarts, final, history
            )

        final = abs(g[k_used])
        if final <= target:
            return GMRESResult(x, True, total_iters, restarts, final, history)

    Ax = yield from _ask("matvec", x)
    if use_precond:
        r = yield from _ask("precond", b - Ax)
    else:
        r = b - Ax
    final = distributed_norm(r, ranges, telemetry)
    if raise_on_fail:
        raise ConvergenceError(
            f"distributed GMRES failed to reach tol={tol} in {total_iters} iterations",
            iterations=total_iters,
            residual=final,
            solver="distributed_block_gmres",
        )
    return GMRESResult(x, final <= target, total_iters, restarts, final, history)


def distributed_block_gmres(
    matrix: RowBlockMatrix,
    B: np.ndarray,
    preconditioner: DistributedBlockJacobi | None = None,
    x0s=None,
    tol: float = 1e-7,
    restart: int = 30,
    max_iter: int = 3000,
    telemetry=_NULL,
    raise_on_fail: bool = False,
    isolate_errors: bool = False,
) -> list[GMRESResult]:
    """Batched multi-RHS GMRES: solve ``K x_c = B[:, c]`` for every column.

    Per-column results are **bit-identical** to calling
    :func:`distributed_gmres` once per column with the same ``x0s[c]``
    (the serial/batched agreement the serving tier's coalesced dispatch
    depends on); the win is economic, not numeric — the matrix and the
    factorized preconditioner are streamed once per Krylov round for all
    still-active columns instead of once per column, and the telemetry
    charges a single halo exchange per batched product.

    ``B`` is ``(n, m)``; ``x0s`` is an optional sequence of ``m``
    per-column initial guesses (``None`` entries start cold). Returns
    ``m`` :class:`repro.solver.GMRESResult` records in column order.
    With ``isolate_errors=True`` a failing column's slot holds the
    raised exception instead of aborting the batch — the per-member
    failure isolation the serving tier's coalesced dispatch relies on.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != matrix.n:
        raise ShapeError(f"B must be ({matrix.n}, m), got {B.shape}")
    m = B.shape[1]
    if x0s is None:
        x0s = [None] * m
    if len(x0s) != m:
        raise ValidationError(f"x0s must have {m} entries, got {len(x0s)}")

    def batched_matvec(X: np.ndarray) -> np.ndarray:
        return matrix.matmat(X, telemetry)

    def batched_precond(R: np.ndarray) -> np.ndarray:
        return preconditioner.solve_many(R, telemetry)

    columns = [
        _gmres_column(
            matrix,
            np.ascontiguousarray(B[:, c]),
            preconditioner is not None,
            x0s[c],
            tol,
            restart,
            max_iter,
            telemetry,
            raise_on_fail,
        )
        for c in range(m)
    ]
    tracer = get_tracer()
    if not tracer.enabled:
        return run_request_columns(
            columns, batched_matvec, batched_precond, isolate=isolate_errors
        )
    with tracer.span(
        "block_gmres", kind="solver", distributed=True, n_rhs=m, tol=tol,
        restart=restart,
    ) as span:
        results = run_request_columns(
            columns, batched_matvec, batched_precond, isolate=isolate_errors
        )
        solved = [r for r in results if isinstance(r, GMRESResult)]
        span.set(
            iterations=int(sum(r.iterations for r in solved)),
            restarts=int(sum(r.restarts for r in solved)),
            residual=float(max((r.residual_norm for r in solved), default=0.0)),
            converged=bool(solved) and all(r.converged for r in solved),
            failed_columns=int(m - len(solved)),
        )
        return results
