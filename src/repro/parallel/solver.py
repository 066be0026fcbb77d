"""Distributed GMRES with block-Jacobi preconditioning.

The virtual-parallel counterpart of :mod:`repro.solver.gmres`: the same
Arnoldi/Givens loop (:func:`repro.solver.gmres.gmres_loop`), called with
a row-block matvec, a telemetered preconditioner and a per-rank
reduction, so every operation is decomposed by rank and reported to the
telemetry — local matvec flops, halo bytes, per-block LU factorization
and triangular solves, partial dot products and the scalar allreduces
that synchronize them. Orthogonalization (:class:`RankReduction`) is
classical Gram-Schmidt with one refinement pass (CGS2): two fused
reductions per iteration, the strategy parallel GMRES implementations
(including PETSc's) use to avoid one allreduce per inner product.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.backend import get_backend
from repro.machines.cost import NullTelemetry
from repro.obs.trace import get_tracer
from repro.parallel.distributed import (
    RowBlockMatrix,
    distributed_axpy_cost,
    distributed_norm,
)
from repro.solver.gmres import (
    DEFAULT_SOLVER_TOL,
    GMRESResult,
    convergence_attrs,
    gmres_loop,
)
from repro.solver.preconditioner import factor_blocks
from repro.solver.schwarz import RestrictedAdditiveSchwarz

_NULL = NullTelemetry()

#: Estimated flops per nonzero of an LU factor for the sparse
#: factorization itself (setup cost, charged once per solve).
FACTOR_FLOPS_PER_NNZ = 12.0
#: Flops per factor nonzero for one forward+backward triangular solve.
SOLVE_FLOPS_PER_NNZ = 4.0


def _charge_factors(preconditioner, telemetry, flops_per_nnz: float) -> None:
    """Charge every rank ``flops_per_nnz`` flops per nonzero of its factor.

    The count (``preconditioner._factor_nnz``, ``L`` plus ``U`` per rank)
    is taken on the first charge to a telemetry that keeps accounts and
    never for a :class:`NullTelemetry`: reading ``lu.L`` / ``lu.U`` makes
    SciPy build both factors as CSC *and cache them on the SuperLU
    object* — a second copy of every factor for the life of the patient
    model, for a number only the machine model uses.
    """
    if type(telemetry) is not NullTelemetry:
        telemetry.compute_all(flops_per_nnz * preconditioner._factor_nnz)


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
        self._ranges = matrix.ranges
        with get_tracer().span(
            "preconditioner setup",
            kind="solver",
            preconditioner="block_jacobi",
            factorization=factorization,
            n_ranks=int(matrix.n_ranks),
        ):
            self._factors = factor_blocks(
                [matrix.local[rank][:, a:b].tocsc() for rank, (a, b) in enumerate(matrix.ranges)],
                factorization,
            )
        _charge_factors(self, telemetry, FACTOR_FLOPS_PER_NNZ)
        self.shape = matrix.shape
        # Backend-prepared block application + reused apply buffer: the
        # apply path allocates nothing, and callers must not hold the
        # returned vector across solve calls.
        self._apply = get_backend().prepare_block_apply(
            [(int(a), int(b)) for a, b in self._ranges], self._factors
        )
        self._out = np.empty(matrix.n)

    @functools.cached_property
    def _factor_nnz(self) -> np.ndarray:
        """Per-rank ``L`` plus ``U`` nonzeros (first read extracts both; see above)."""
        return np.array([lu.L.nnz + lu.U.nnz for lu in self._factors], dtype=float)

    def solve(self, r: np.ndarray, telemetry=_NULL) -> np.ndarray:
        _charge_factors(self, telemetry, SOLVE_FLOPS_PER_NNZ)
        r = np.asarray(r, dtype=float)
        return self._apply(r, self._out)


class DistributedRAS:
    """Distributed restricted additive Schwarz with overlap.

    Each rank's subdomain is its owned rows grown by ``overlap``
    matrix-graph layers; applying the preconditioner requires importing
    the residual values of the overlap region from neighbouring ranks
    (charged to the telemetry as a halo exchange), then a local
    factorized solve restricted back to owned rows. The subdomains,
    their incomplete factors and the application itself are the serial
    :class:`repro.solver.RestrictedAdditiveSchwarz`; this class adds what
    is distributed about it — the halo bytes and the flop charges.
    """

    def __init__(
        self,
        matrix: RowBlockMatrix,
        telemetry=_NULL,
        overlap: int = 1,
    ):
        self._ras = RestrictedAdditiveSchwarz(
            matrix.to_csr(), matrix.ranges, overlap=overlap, factorization="ilu"
        )
        stops = matrix.ranges[:, 1]
        halo: dict[tuple[int, int], float] = {}
        for rank, ((a, b), grown) in enumerate(zip(matrix.ranges, self._ras.subdomains)):
            external = grown[(grown < a) | (grown >= b)]
            if len(external):
                owners = np.searchsorted(stops, external, side="right")
                for src, count in zip(*np.unique(owners, return_counts=True)):
                    halo[(int(src), rank)] = float(count * 8)
        self._halo = halo
        _charge_factors(self, telemetry, FACTOR_FLOPS_PER_NNZ)
        self.shape = matrix.shape

    @functools.cached_property
    def _factor_nnz(self) -> np.ndarray:
        """Per-rank ``L`` plus ``U`` nonzeros (first read extracts both; see above)."""
        return np.array(self._ras.factor_nnz(), dtype=float)

    def solve(self, r: np.ndarray, telemetry=_NULL) -> np.ndarray:
        telemetry.halo_exchange(self._halo)
        _charge_factors(self, telemetry, SOLVE_FLOPS_PER_NNZ)
        return self._ras.solve(r)


class RankReduction:
    """Vector reductions of the Arnoldi loop, decomposed by rank.

    The distributed counterpart of
    :class:`repro.solver.gmres.SerialReduction`: norms are per-rank
    partial sums plus a scalar allreduce, orthogonalisation is CGS2 (two
    fused reduction rounds, one ``k * 8``-byte allreduce each), and every
    axpy/scale pass is charged to the telemetry.
    """

    def __init__(self, ranges: np.ndarray, telemetry):
        self._ranges = ranges
        self._telemetry = telemetry
        # Per-rank vector lengths are loop-invariant: computed once here
        # instead of on every fused-orthogonalization reduction.
        self._lengths = (ranges[:, 1] - ranges[:, 0]).astype(float)

    def norm(self, v: np.ndarray) -> float:
        return distributed_norm(v, self._ranges, self._telemetry)

    def axpy_cost(self, n_vectors: int = 1) -> None:
        distributed_axpy_cost(self._ranges, self._telemetry, n_vectors=n_vectors)

    def _fused_dots(self, Vk: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Dots of w against k vectors: one (k*8)-byte allreduce."""
        k = Vk.shape[0]
        self._telemetry.compute_all(2.0 * k * self._lengths)
        h = Vk @ w
        self._telemetry.allreduce(8.0 * k)
        return h

    def orthogonalize(self, V: np.ndarray, H: np.ndarray, k: int, w: np.ndarray) -> np.ndarray:
        """CGS2 of ``w`` against ``V[:k+1]`` into ``H[:k+1, k]``; returns the new ``w``."""
        Vk = V[: k + 1]
        h1 = self._fused_dots(Vk, w)
        w = w - Vk.T @ h1
        self.axpy_cost(k + 1)
        h2 = self._fused_dots(Vk, w)
        w = w - Vk.T @ h2
        self.axpy_cost(k + 1)
        H[: k + 1, k] = h1 + h2
        return w


def distributed_gmres(
    matrix: RowBlockMatrix,
    b: np.ndarray,
    preconditioner: DistributedBlockJacobi | DistributedRAS | None = None,
    x0: np.ndarray | None = None,
    tol: float = DEFAULT_SOLVER_TOL,
    restart: int = 30,
    max_iter: int = 3000,
    telemetry=_NULL,
    raise_on_fail: bool = False,
) -> GMRESResult:
    """Left-preconditioned restarted GMRES over a row-block matrix.

    Mathematically equivalent to :func:`repro.solver.gmres` (up to the
    Gram-Schmidt variant); the telemetry records the parallel execution.
    ``preconditioner`` is a :class:`DistributedBlockJacobi`, a
    :class:`DistributedRAS` or ``None`` (unpreconditioned). Input
    validation and zero-RHS behaviour are the serial solver's: ``x0`` is
    shape-validated, the returned solution is zero, ``history`` is
    ``[0.0]``. Tracing mirrors the serial solver too: a ``gmres`` span
    with one ``restart`` event per cycle, plus a ``preconditioner
    applications`` count attribute.
    """
    applications = 0
    with get_tracer().span(
        "gmres", kind="solver", distributed=True, tol=tol, restart=restart
    ) as span:

        def precond(r: np.ndarray) -> np.ndarray:
            # The running application count lands on the span immediately
            # (a dict update; no-op on a disabled tracer) so every return
            # path reports it without a try/finally around the whole solve.
            nonlocal applications
            applications += 1
            span.set(preconditioner_applications=applications)
            if preconditioner is None:
                return r.copy()
            return preconditioner.solve(r, telemetry)

        result = gmres_loop(
            matrix.n, b, x0, tol, restart, max_iter, raise_on_fail,
            lambda v: matrix.matvec(v, telemetry), precond,
            RankReduction(matrix.ranges, telemetry), span, "distributed_gmres",
        )
        span.set(**convergence_attrs(result, tol))
        return result

