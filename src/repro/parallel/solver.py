"""Distributed GMRES and CG over row-block matrices.

The virtual-parallel counterparts of :mod:`repro.solver.gmres` and
:mod:`repro.solver.cg`: the same loops (:func:`repro.solver.gmres.gmres_loop`,
:func:`repro.solver.cg.cg_loop`), called with a row-block matvec, a
telemetered preconditioner and a per-rank reduction, so every operation
is decomposed by rank and reported to the telemetry — local matvec
flops, halo bytes, per-block factorization and triangular solves,
partial dot products and the scalar allreduces that synchronize them.
GMRES orthogonalization (:class:`RankReduction`) is classical
Gram-Schmidt with one refinement pass (CGS2): two fused reductions per
iteration, the strategy parallel GMRES implementations (including
PETSc's) use to avoid one allreduce per inner product.

The intraoperative pipeline solves with :data:`PIPELINE_PRECONDITIONER`
and CG (:func:`distributed_cg`): a per-rank block FSAI
(:class:`DistributedBlockFSAI`), balanced with more than one rank by a
coarse space of rigid-body modes (:class:`DistributedCoarseCorrection`)
that restores the global coupling the per-rank blocks discard. Both are
symmetric positive definite and neither factors a sparse matrix. The paper's
configurations (:class:`DistributedBlockJacobi`, :class:`DistributedRAS`,
SuperLU factors) solve with GMRES (:func:`distributed_gmres`).
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import linalg, sparse

from repro.backend import get_backend
from repro.machines.cost import NullTelemetry
from repro.obs.trace import get_tracer
from repro.parallel.distributed import (
    RowBlockMatrix,
    distributed_axpy_cost,
    distributed_dot,
    distributed_norm,
)
from repro.solver.cg import cg_loop
from repro.solver.gmres import (
    DEFAULT_SOLVER_TOL,
    GMRESResult,
    convergence_attrs,
    gmres_loop,
)
from repro.solver.preconditioner import block_fsai, factor_blocks, side_by_side
from repro.util import ShapeError, ValidationError

_NULL = NullTelemetry()

#: Estimated flops per nonzero of an LU factor for the sparse
#: factorization itself (setup cost, charged once per solve).
FACTOR_FLOPS_PER_NNZ = 12.0
#: Flops per factor nonzero for one forward+backward triangular solve.
SOLVE_FLOPS_PER_NNZ = 4.0

#: The preconditioner the intraoperative pipeline solves with: the one
#: name both the preoperative context build and the escalation ladder's
#: first rung pass, so the two fingerprints agree and every scan after
#: the build is a cache hit.
PIPELINE_PRECONDITIONER = "coarse_block_jacobi"
#: Every name :func:`repro.parallel.simulate_parallel` accepts.
PRECONDITIONERS = ("block_jacobi", PIPELINE_PRECONDITIONER, "ras")

#: A rank's rigid-body mode is kept when its singular value is at least
#: this share of the rank's largest (a rank whose free DOFs cannot carry
#: all six modes, e.g. too few free nodes, contributes fewer).
MODE_RANK_TOL = 1e-8
#: An entry of ``K Z`` is kept when it is above this share of the largest.
#: A row whose stencil lies inside its own rank and clear of the prescribed
#: surface is zero in exact arithmetic (the element stiffness annihilates
#: rigid motions), about half the rows on compact subdomains; their
#: round-off entries sit below 1e-15 of the largest, the kept ones above
#: 1e-6, on the ``session-fem`` and paper-size systems.
KZ_DROP_TOL = 1e-10


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


class DistributedBlockFSAI:
    """One block FSAI factor per rank: ``B = G^T G``, ``G`` block diagonal.

    Each rank's ``G`` is :func:`repro.solver.preconditioner.block_fsai` of
    its diagonal block on 3x3 node blocks, so every rank's rows must be
    whole node triples (``components`` reads 0, 1, 2 along each rank's
    rows) or :class:`ShapeError` is raised. Set-up is batched small dense
    solves, no sparse factorization; an application is two CSR products,
    ``G^T (G r)``, with no communication. ``B`` is symmetric positive
    definite, so CG can use it: it is :class:`DistributedCoarseCorrection`'s
    block solver at every rank count. The telemetry is charged each rank's
    batched-solve flops at set-up and ``4 nnz(G_rank)`` flops per
    application.
    """

    def __init__(self, matrix: RowBlockMatrix, components: np.ndarray, telemetry=_NULL):
        components = np.asarray(components)
        for a, b in matrix.ranges:
            if (b - a) % 3 or np.any(components[a:b] != np.arange(b - a) % 3):
                raise ShapeError(f"rows [{a}, {b}) of a rank are not whole node triples")
        with get_tracer().span(
            "preconditioner setup",
            kind="solver",
            preconditioner="block_fsai",
            n_ranks=int(matrix.n_ranks),
        ):
            factors = side_by_side(
                block_fsai, [matrix.local[rank][:, a:b] for rank, (a, b) in enumerate(matrix.ranges)]
            )
            self._g = sparse.block_diag([g for g, _ in factors], format="csr")
            self._gt = self._g.T.tocsr()
        telemetry.compute_all(np.array([flops for _, flops in factors]))
        starts = np.append(matrix.ranges[:, 0], matrix.n)
        self._apply_flops = 4.0 * np.diff(self._g.indptr[starts])
        self.shape = matrix.shape
        # Reused buffers (as in DistributedBlockJacobi): callers must not
        # hold the returned vector across solve calls.
        self._half = np.empty(matrix.n)
        self._out = np.empty(matrix.n)

    def solve(self, r: np.ndarray, telemetry=_NULL) -> np.ndarray:
        telemetry.compute_all(self._apply_flops)
        backend = get_backend()
        backend.csr_matvec(self._g, np.asarray(r, dtype=float), out=self._half)
        return backend.csr_matvec(self._gt, self._half, out=self._out)


def rigid_body_modes(
    points: np.ndarray, components: np.ndarray, ranges: np.ndarray
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Every rank's six rigid-body modes on its own rows, and their basis.

    Row ``i`` is the DOF ``components[i]`` (0, 1, 2 for x, y, z) of the
    node at ``points[i]``. Returns ``(Z, T)``. ``Z`` is the ``(n, 6P)``
    CSR whose columns ``6p .. 6p + 5`` are rank ``p``'s three translations
    and three rotations about its rows' centroid, on its rows ``[a, b)``:
    three nonzeros a row, the row's translation and the two rotations that
    move its component. ``T`` is ``(6P, m)`` and block diagonal, with
    ``Z T`` orthonormal on every rank; modes a rank's rows cannot carry are
    dropped (:data:`MODE_RANK_TOL`), so ``m <= 6P``.
    """
    points = np.asarray(points, dtype=float)
    components = np.asarray(components, dtype=np.intp)
    n, n_ranks = len(components), len(ranges)
    lengths = ranges[:, 1] - ranges[:, 0]
    rank = np.repeat(np.arange(n_ranks), lengths)
    centroids = np.stack(
        [np.bincount(rank, points[:, k], n_ranks) for k in range(3)], axis=1
    ) / np.maximum(lengths, 1)[:, None]
    x = points - centroids[rank]
    rows = np.arange(n)
    after, before = (components + 1) % 3, (components + 2) % 3
    # The rotation about axis k moves x by e_k x x: component c gains
    # x[c+2] from the rotation about c+1 and -x[c+1] from the one about c+2.
    columns = np.stack([components, 3 + after, 3 + before], axis=1) + 6 * rank[:, None]
    values = np.stack([np.ones(n), x[rows, before], -x[rows, after]], axis=1)
    z = sparse.csr_matrix(
        (values.ravel(), columns.ravel(), np.arange(0, 3 * n + 1, 3)), shape=(n, 6 * n_ranks)
    )
    z.sort_indices()
    bases = []
    for p, (a, b) in enumerate(ranges):
        _, sigma, vt = np.linalg.svd(z[a:b, 6 * p : 6 * p + 6].toarray(), full_matrices=False)
        keep = sigma > MODE_RANK_TOL * sigma.max(initial=0.0)
        bases.append(vt[keep].T / sigma[keep])
    return z, linalg.block_diag(*bases)


class DistributedCoarseCorrection:
    """Per-rank block FSAI balanced by a rigid-body coarse space.

    With ``B`` the per-rank block FSAI of ``matrix`` (``K``,
    :class:`DistributedBlockFSAI`) and ``Z``
    every rank's six rigid-body modes on its own rows
    (:func:`rigid_body_modes`; ``points[i]`` and ``components[i]`` are the
    node position and the component of row ``i``), the preconditioner is
    the balancing form

        ``M = (I - QK) B (I - KQ) + Q``,  ``Q = Z E^-1 Z^T``,  ``E = Z^T K Z``.

    ``Q`` solves exactly on the coarse space (``M K Z = Z``) and ``B``
    works on its ``K``-orthogonal complement, so the low-energy modes
    that the per-rank blocks cannot see no longer cost Krylov iterations.
    One rank's block cuts no coupling: with one rank there is no coarse
    space (``coarse_dim == 0``) and ``M`` is ``B``. ``M`` is symmetric
    positive definite at every rank count (``B`` and ``Q`` are, and the
    two halves are each other's transpose), which is what lets the
    pipeline solve with CG (:func:`distributed_cg`); set-up factors
    nothing sparse.

    Set-up keeps ``Z`` and ``K Z`` as CSR matrices over all ranks (three
    nonzeros a row of ``Z``; ``K Z`` only on rows that couple to another
    rank or to the prescribed surface, :data:`KZ_DROP_TOL`) and the
    coarse inverse ``T (T^T E T)^-1 T^T`` in ``Z``'s own columns, so an
    application is four sparse products, two ``6P``-square products and
    two vector updates over the whole vector, whatever the rank count,
    and no extra matvec. The telemetry is charged for exactly that:
    ``K Z`` (a six-wide halo exchange and the local products), the
    reduction of ``E``, its factorization and inverse, replicated, at
    set-up; per application two ``48 P``-byte all-reduces, two replicated
    coarse products and the local products with ``Z`` and ``K Z``.
    """

    def __init__(
        self,
        matrix: RowBlockMatrix,
        points: np.ndarray,
        components: np.ndarray,
        telemetry=_NULL,
    ):
        self.shape = matrix.shape
        self.modes = None
        self.coarse_dim = 0
        if matrix.n_ranks > 1:
            self._coarse_setup(matrix, points, components, telemetry)
        self._blocks = DistributedBlockFSAI(matrix, components, telemetry)

    def _coarse_setup(self, matrix, points, components, telemetry) -> None:
        with get_tracer().span(
            "coarse space setup", kind="solver", n_ranks=int(matrix.n_ranks)
        ) as span:
            z, basis = self.modes = rigid_body_modes(points, components, matrix.ranges)
            self.coarse_dim = basis.shape[1]
            span.set(coarse_dim=self.coarse_dim)
            kz = sparse.vstack([block @ z for block in matrix.local], format="csr")
            coarse = basis.T @ (z.T @ kz).toarray() @ basis
            # Replicated on every rank: E's Cholesky factor, applied as the
            # explicit inverse it yields in Z's own columns (one 6P-square
            # product per coarse solve, no triangular-solve call overhead).
            factor = linalg.cho_factor(0.5 * (coarse + coarse.T))
            self._coarse_inverse = basis @ linalg.cho_solve(factor, basis.T)
            kz.data[np.abs(kz.data) <= KZ_DROP_TOL * np.abs(kz.data).max(initial=0.0)] = 0.0
            kz.eliminate_zeros()
            self._z, self._zt, self._kz, self._kzt = z, z.T.tocsr(), kz, kz.T.tocsr()
        starts = np.append(matrix.ranges[:, 0], matrix.n)
        lengths = np.diff(starts).astype(float)
        kz_nnz = np.diff(kz.indptr[starts]).astype(float)
        # Per-application charges: one Z and one KZ product per half, and
        # a replicated 6P-square product per coarse solve.
        self._half_flops = 6.0 * lengths + 2.0 * kz_nnz
        self._coarse_flops = np.full(matrix.n_ranks, 2.0 * self._coarse_inverse.size)
        if type(telemetry) is not NullTelemetry:
            # KZ: each rank imports six mode values per halo entry and
            # multiplies its rows by them; E's row blocks are summed across
            # ranks and factored on every rank.
            m = float(len(self._coarse_inverse))
            telemetry.halo_exchange({k: 6.0 * v for k, v in matrix.halo_pairs.items()})
            telemetry.compute_all(6.0 * matrix.local_nnz + 12.0 * kz_nnz)
            telemetry.allreduce(8.0 * m * m)
            telemetry.compute_all(np.full(matrix.n_ranks, m**3 / 3.0 + 2.0 * m**3))

    def _coarse_solve(self, partials: np.ndarray, telemetry) -> np.ndarray:
        """``E^-1`` of a coarse vector summed over the ranks (one all-reduce)."""
        telemetry.allreduce(8.0 * len(partials))
        telemetry.compute_all(self._coarse_flops)
        return self._coarse_inverse @ partials

    def solve(self, r: np.ndarray, telemetry=_NULL) -> np.ndarray:
        if not self.coarse_dim:
            return self._blocks.solve(r, telemetry)
        r = np.asarray(r, dtype=float)
        telemetry.compute_all(self._half_flops)
        c0 = self._coarse_solve(self._zt @ r, telemetry)
        # B (I - KQ) r, with K Q r = (K Z) c0.
        z_vec = self._blocks.solve(r - self._kz @ c0, telemetry)
        # (I - QK) z + Q r = z + Z (c0 - E^-1 (KZ)^T z), since Z^T K = (KZ)^T.
        telemetry.compute_all(self._half_flops)
        z_vec += self._z @ (c0 - self._coarse_solve(self._kzt @ z_vec, telemetry))
        return z_vec


def grow_subdomain(csr: sparse.csr_matrix, indices: np.ndarray, overlap: int) -> np.ndarray:
    """Grow an index set by ``overlap`` matrix-graph adjacency layers.

    One layer adds every column referenced by the current rows.
    """
    grown = np.asarray(indices, dtype=np.intp)
    for _ in range(overlap):
        rows = csr[grown, :]
        grown = np.unique(np.concatenate([grown, rows.indices.astype(np.intp)]))
    return grown


class DistributedRAS:
    """Distributed restricted additive Schwarz (RAS) with overlap.

    Block Jacobi is the zero-overlap member of the Schwarz family: each
    rank solves its own diagonal block and discards all coupling. Here
    each rank's subdomain is its owned rows grown by ``overlap``
    matrix-graph layers (:func:`grow_subdomain`); an application imports
    the residual values of the overlap region from neighbouring ranks
    (charged to the telemetry as a halo exchange), solves on the grown
    subdomain with its factor (``"ilu"`` by default, ``"lu"`` for exact
    subdomain solves, as :class:`DistributedBlockJacobi`) and keeps the
    owned rows. ``overlap=0`` is block Jacobi. The recovered coupling
    costs extra factorization and a halo exchange per application; the
    paper's PETSc offered it as ``-pc_asm``, and Ablation C measures the
    trade.
    """

    def __init__(
        self,
        matrix: RowBlockMatrix,
        telemetry=_NULL,
        overlap: int = 1,
        factorization: str = "ilu",
    ):
        if overlap < 0:
            raise ValidationError(f"overlap must be >= 0, got {overlap}")
        self._ranges = matrix.ranges
        csr = matrix.to_csr()
        with get_tracer().span(
            "preconditioner setup",
            kind="solver",
            preconditioner="ras",
            overlap=overlap,
            factorization=factorization,
            n_ranks=int(matrix.n_ranks),
        ):
            #: Sorted row indices of every grown subdomain (owned rows + overlap).
            self.subdomains = [
                grow_subdomain(csr, np.arange(a, b, dtype=np.intp), overlap)
                for a, b in matrix.ranges
            ]
            # Positions within each subdomain vector that are owned rows.
            self._own_positions = [
                np.searchsorted(grown, np.arange(a, b, dtype=np.intp))
                for (a, b), grown in zip(matrix.ranges, self.subdomains)
            ]
            self._factors = factor_blocks(
                [csr[grown, :][:, grown].tocsc() for grown in self.subdomains], factorization
            )
        stops = matrix.ranges[:, 1]
        halo: dict[tuple[int, int], float] = {}
        for rank, ((a, b), grown) in enumerate(zip(matrix.ranges, self.subdomains)):
            external = grown[(grown < a) | (grown >= b)]
            if len(external):
                owners = np.searchsorted(stops, external, side="right")
                for src, count in zip(*np.unique(owners, return_counts=True)):
                    halo[(int(src), rank)] = float(count * 8)
        self._halo = halo
        _charge_factors(self, telemetry, FACTOR_FLOPS_PER_NNZ)
        self.shape = matrix.shape
        # Reused apply buffer (as in DistributedBlockJacobi): callers
        # must not hold the returned vector across solve calls.
        self._out = np.empty(matrix.n)

    @functools.cached_property
    def _factor_nnz(self) -> np.ndarray:
        """Per-rank ``L`` plus ``U`` nonzeros (first read extracts both; see above)."""
        return np.array([lu.L.nnz + lu.U.nnz for lu in self._factors], dtype=float)

    def solve(self, r: np.ndarray, telemetry=_NULL) -> np.ndarray:
        telemetry.halo_exchange(self._halo)
        _charge_factors(self, telemetry, SOLVE_FLOPS_PER_NNZ)
        r = np.asarray(r, dtype=float)
        out = self._out
        for (a, b), subdomain, factor, own in zip(
            self._ranges, self.subdomains, self._factors, self._own_positions
        ):
            out[a:b] = factor.solve(r[subdomain])[own]
        return out


class RankReduction:
    """Vector reductions of the Krylov loops, decomposed by rank.

    The distributed counterpart of
    :class:`repro.solver.gmres.SerialReduction`: dots and norms are
    per-rank partial sums plus a scalar allreduce, orthogonalisation is
    CGS2 (two fused reduction rounds, one ``k * 8``-byte allreduce each),
    and every axpy/scale pass is charged to the telemetry.
    """

    def __init__(self, ranges: np.ndarray, telemetry):
        self._ranges = ranges
        self._telemetry = telemetry
        # Per-rank vector lengths are loop-invariant: computed once here
        # instead of on every fused-orthogonalization reduction.
        self._lengths = (ranges[:, 1] - ranges[:, 0]).astype(float)

    def norm(self, v: np.ndarray) -> float:
        return distributed_norm(v, self._ranges, self._telemetry)

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        return distributed_dot(u, v, self._ranges, self._telemetry)

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


def _counted(preconditioner, telemetry, span):
    """``M^{-1}`` as a callable that counts its applications on ``span``.

    The running count lands on the span at once (a dict update; no-op on
    a disabled tracer), so every return path reports it without a
    try/finally around the whole solve. ``None`` is the identity.
    """
    applications = 0

    def precond(r: np.ndarray) -> np.ndarray:
        nonlocal applications
        applications += 1
        span.set(preconditioner_applications=applications)
        if preconditioner is None:
            return r.copy()
        return preconditioner.solve(r, telemetry)

    return precond


def distributed_gmres(
    matrix: RowBlockMatrix,
    b: np.ndarray,
    preconditioner: DistributedBlockJacobi
    | DistributedCoarseCorrection
    | DistributedRAS
    | None = None,
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
    :class:`DistributedCoarseCorrection`, a :class:`DistributedRAS` or
    ``None`` (unpreconditioned). Input
    validation and zero-RHS behaviour are the serial solver's: ``x0`` is
    shape-validated, the returned solution is zero, ``history`` is
    ``[0.0]``. Tracing mirrors the serial solver too: a ``gmres`` span
    with one ``restart`` event per cycle, plus a ``preconditioner
    applications`` count attribute.
    """
    with get_tracer().span(
        "gmres", kind="solver", distributed=True, tol=tol, restart=restart
    ) as span:
        result = gmres_loop(
            matrix.n, b, x0, tol, restart, max_iter, raise_on_fail,
            lambda v: matrix.matvec(v, telemetry), _counted(preconditioner, telemetry, span),
            RankReduction(matrix.ranges, telemetry), span, "distributed_gmres",
        )
        span.set(**convergence_attrs(result, tol))
        return result


def distributed_cg(
    matrix: RowBlockMatrix,
    b: np.ndarray,
    preconditioner: DistributedCoarseCorrection | None = None,
    x0: np.ndarray | None = None,
    tol: float = DEFAULT_SOLVER_TOL,
    max_iter: int = 3000,
    telemetry=_NULL,
    raise_on_fail: bool = False,
) -> GMRESResult:
    """Preconditioned CG over a row-block matrix.

    The pipeline's solve: ``preconditioner`` must be symmetric positive
    definite (:class:`DistributedCoarseCorrection`, or ``None``). It is
    :func:`repro.solver.cg.cg_loop` with the per-rank reduction, so every
    iteration's three dots pay a scalar all-reduce on the virtual clock;
    it stops on ``||b - A x|| <= tol * ||b||`` and reports zero
    restarts. Validation and zero-RHS behaviour are the serial solver's.
    Tracing: a ``cg`` span with the convergence attributes of a
    ``gmres`` span and a ``preconditioner_applications`` count.
    """
    with get_tracer().span("cg", kind="solver", distributed=True, tol=tol) as span:
        result = cg_loop(
            matrix.n, b, x0, tol, max_iter, raise_on_fail,
            lambda v: matrix.matvec(v, telemetry), _counted(preconditioner, telemetry, span),
            RankReduction(matrix.ranges, telemetry), "distributed_cg",
        )
        span.set(**convergence_attrs(result, tol))
        return result
