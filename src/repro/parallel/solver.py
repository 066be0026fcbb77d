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
(:class:`DistributedBlockFSAI`), deflated with more than one rank by
rigid-body modes on aggregates (:class:`DistributedCoarseCorrection`,
:func:`deflated_start`), which restore the global coupling the per-rank
blocks discard. Neither factors a sparse matrix. The paper's
configuration (:class:`DistributedBlockJacobi`, SuperLU factors) solves
with GMRES (:func:`distributed_gmres`).
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import sparse
from scipy.linalg import lapack

from repro.machines.cost import NullTelemetry
from repro.mesh.partition import coordinate_bisection
from repro.obs.trace import get_tracer
from repro.parallel.distributed import (
    RowBlockMatrix,
    distributed_axpy_cost,
    distributed_dot,
    distributed_norm,
)
from repro.solver.cg import cg_loop
from repro.solver.gmres import gmres_loop
from repro.solver.krylov import (
    DEFAULT_SOLVER_TOL,
    KrylovResult,
    checked_system,
    convergence_attrs,
)
from repro.solver.preconditioner import block_fsai, factor_blocks, side_by_side
from repro.util import ShapeError

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
PRECONDITIONERS = ("block_jacobi", PIPELINE_PRECONDITIONER)

#: An aggregate's rigid-body mode is kept when its eigenvalue of the
#: aggregate's Gram block ``Z_a^T Z_a`` is at least this share of the
#: largest (an aggregate whose free DOFs cannot carry all six modes, e.g.
#: one free node, or collinear ones, contributes fewer).
MODE_RANK_TOL = 1e-8
#: An entry of ``K Z`` is kept when it is above this share of the largest.
#: A row whose stencil lies inside its own aggregate and clear of the
#: prescribed surface is zero in exact arithmetic (the element stiffness
#: annihilates rigid motions), 11-12 % of the rows on 128-node
#: aggregates; their round-off entries sit below 1e-15 of the largest, the
#: kept ones above 9e-7, on the ``session-fem`` and paper-size systems.
KZ_DROP_TOL = 1e-10
#: Free nodes per coarse aggregate: :func:`aggregate_labels` cuts each rank's
#: free nodes into parts of about this many, each carrying six rigid-body
#: modes. At the paper's size (19,254 free nodes on 16 ranks) that is 151
#: aggregates and a 906-dimensional coarse space.
AGGREGATE_NODES = 128


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
    ``factorization="lu"`` for exact block LU (used by small tests).
    The approximation quality decreases as ranks are added (smaller
    blocks discard more coupling), so iteration counts grow mildly with
    CPU count, as observed in practice.

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
        # Reused apply buffer: callers must not hold the returned vector
        # across solve calls.
        self._out = np.empty(matrix.n)

    @functools.cached_property
    def _factor_nnz(self) -> np.ndarray:
        """Per-rank ``L`` plus ``U`` nonzeros (first read extracts both; see above)."""
        return np.array([lu.L.nnz + lu.U.nnz for lu in self._factors], dtype=float)

    def solve(self, r: np.ndarray, telemetry=_NULL) -> np.ndarray:
        _charge_factors(self, telemetry, SOLVE_FLOPS_PER_NNZ)
        r = np.asarray(r, dtype=float)
        for (a, b), factor in zip(self._ranges, self._factors):
            self._out[a:b] = factor.solve(r[a:b])
        return self._out


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
        ) as span:
            factors = side_by_side(
                block_fsai, [matrix.local[rank][:, a:b] for rank, (a, b) in enumerate(matrix.ranges)]
            )
            self._g = sparse.block_diag([g for g, _ in factors], format="csr")
            self._gt = self._g.T.tocsr()
            span.set(g_nnz=int(self._g.nnz))
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
        self._half[:] = self._g @ np.asarray(r, dtype=float)
        self._out[:] = self._gt @ self._half
        return self._out


def aggregate_labels(points: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    """Every row's coarse aggregate: each rank's nodes cut into compact parts.

    ``points[i]`` is the position of row ``i``'s node and every rank's rows
    ``[a, b)`` are whole node triples. A rank with ``k`` nodes is cut by
    :func:`repro.mesh.partition.coordinate_bisection` into
    ``max(1, round(k / AGGREGATE_NODES))`` aggregates, numbered rank by rank,
    so aggregates nest inside ranks and a rank's are consecutive labels.
    """
    labels = np.empty(len(points), dtype=np.intp)
    first = 0
    for a, b in ranges:
        nodes = points[a:b:3]
        if len(nodes):
            parts = max(1, round(len(nodes) / AGGREGATE_NODES))
            labels[a:b] = np.repeat(first + coordinate_bisection(nodes, parts), 3)
            first += parts
    return labels


def rigid_body_modes(
    points: np.ndarray, components: np.ndarray, aggregates: np.ndarray
) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """Every aggregate's six rigid-body modes on its own rows, and their basis.

    Row ``i`` is the DOF ``components[i]`` (0, 1, 2 for x, y, z) of the
    node at ``points[i]``, in aggregate ``aggregates[i]`` (labels
    ``0 .. g - 1``). Returns ``(Z, T)``. ``Z`` is the ``(n, 6g)`` CSR whose
    columns ``6a .. 6a + 5`` are aggregate ``a``'s three translations and
    three rotations about its rows' centroid, on its own rows: three
    nonzeros a row, the row's translation and the two rotations that move
    its component. ``T`` is ``(6g, m)`` CSR and block diagonal, with
    ``Z T`` orthonormal on every aggregate. It comes from one batched
    eigen-decomposition of the aggregates' ``6 x 6`` Gram blocks
    ``Z_a^T Z_a``; a mode whose eigenvalue is below :data:`MODE_RANK_TOL`
    of its aggregate's largest is one the aggregate's rows cannot carry
    (a single node carries no rotation) and is dropped, so ``m <= 6g``.
    """
    points = np.asarray(points, dtype=float)
    components = np.asarray(components, dtype=np.intp)
    labels = np.asarray(aggregates, dtype=np.intp)
    n = len(components)
    g = int(labels.max()) + 1 if n else 0
    sizes = np.maximum(np.bincount(labels, minlength=g), 1)
    centroids = np.stack([np.bincount(labels, points[:, k], g) for k in range(3)], axis=1)
    x = points - (centroids / sizes[:, None])[labels]
    rows = np.arange(n)
    after, before = (components + 1) % 3, (components + 2) % 3
    # The rotation about axis k moves x by e_k x x: component c gains
    # x[c+2] from the rotation about c+1 and -x[c+1] from the one about c+2.
    local = np.stack([components, 3 + after, 3 + before], axis=1)
    values = np.stack([np.ones(n), x[rows, before], -x[rows, after]], axis=1)
    # Gram blocks by one bincount over every row's 3 x 3 outer product.
    slots = 36 * labels[:, None, None] + 6 * local[:, :, None] + local[:, None, :]
    outer = values[:, :, None] * values[:, None, :]
    gram = np.bincount(slots.ravel(), outer.ravel(), 36 * g).reshape(g, 6, 6)
    z = sparse.csr_matrix(
        (values.ravel(), (local + 6 * labels[:, None]).ravel(), np.arange(0, 3 * n + 1, 3)),
        shape=(n, 6 * g),
    )
    z.sort_indices()
    eigenvalues, vectors = np.linalg.eigh(gram)
    keep = eigenvalues > MODE_RANK_TOL * eigenvalues.max(axis=1, initial=0.0)[:, None]
    column = np.cumsum(keep.ravel()).reshape(g, 6) - 1
    a, i, j = np.nonzero(np.broadcast_to(keep[:, None, :], (g, 6, 6)))
    basis = sparse.csr_matrix(
        (vectors[a, i, j] / np.sqrt(eigenvalues[a, j]), (6 * a + i, column[a, j])),
        shape=(6 * g, int(keep.sum())),
    )
    return z, basis


def deflated_start(
    matrix: RowBlockMatrix, b: np.ndarray, x0: np.ndarray | None, preconditioner, tol, telemetry
) -> np.ndarray | None:
    """The start ``x = Q b + (I - QK) x0`` of a solve deflated by ``preconditioner``.

    ``x0`` itself when the preconditioner has no coarse space (one rank,
    block Jacobi, none) or ``b`` is zero. Otherwise
    ``x0 + Q (b - K x0)`` (``Q b`` without ``x0``): one coarse solve, whose
    residual ``r`` has ``Z^T r = 0``. The Krylov loops keep it there,
    because every preconditioned direction
    (:meth:`DistributedCoarseCorrection.solve`) is ``K``-orthogonal to
    ``Z``. ``b`` and ``x0`` are validated as the loops validate them.
    """
    if not getattr(preconditioner, "coarse_dim", 0):
        return x0
    b, x = checked_system(matrix.n, b, x0, tol)
    if not np.any(b):
        return x0
    r = b if x0 is None else b - matrix.matvec(x, telemetry)
    return x + preconditioner.coarse_correction(r, telemetry)


class DistributedCoarseCorrection:
    """Per-rank block FSAI, deflated by rigid-body modes on aggregates.

    With ``B`` the per-rank block FSAI of ``matrix`` (``K``,
    :class:`DistributedBlockFSAI`) and ``Z`` six rigid-body modes on each
    aggregate of about :data:`AGGREGATE_NODES` nodes
    (:func:`aggregate_labels`, :func:`rigid_body_modes`; ``points[i]`` and
    ``components[i]`` are the node position and the component of row
    ``i``), the preconditioner is deflation (A-DEF2 of Tang, Nabben, Vuik
    and Erlangga, J. Sci. Comput. 39, 2009)

        ``P r = (I - QK) B r``,  ``Q = Z E^-1 Z^T``,  ``E = Z^T K Z``,

    started from ``x = Q b + (I - QK) x0`` (:func:`deflated_start`, which
    :func:`distributed_cg` and :func:`distributed_gmres` call). From that
    start every residual has ``Z^T r = 0``, where A-DEF2's ``+ Q r`` term
    is zero, and on that subspace ``P`` is symmetric and positive
    (``s^T P r = s^T B r``): CG runs on it with the iterations of the
    balancing form ``(I - QK) B (I - KQ) + Q`` and one coarse solve an
    application instead of two. The low-energy modes that the per-rank
    blocks cannot see are solved exactly by the start and projected out of
    every direction, so they cost no Krylov iterations.
    One rank's block cuts no coupling: with one rank there is no coarse
    space (``coarse_dim == 0``), no deflated start, and ``P`` is ``B``.
    Set-up factors nothing sparse.

    Set-up keeps ``Z`` and ``(K Z)^T`` as CSR matrices over all ranks
    (three nonzeros a row of ``Z``; ``K Z`` only on rows that couple to
    another aggregate or to the prescribed surface, :data:`KZ_DROP_TOL`)
    and the coarse inverse ``T (T^T E T)^-1 T^T`` in ``Z``'s own columns.
    An application is the block solve, a ``(K Z)^T`` product, one coarse
    solve, a ``Z`` product and a vector update, and no extra matvec.
    Aggregates nest inside ranks, so every column of ``Z`` is one rank's:
    after the coarse all-reduce each rank applies only its own
    aggregates' ``m_p`` rows of ``E^-1``. The telemetry is charged for
    exactly that: ``K Z`` (a six-wide halo exchange and the local
    products), the reduction of ``E``, its factorization and each rank's
    rows of its inverse, at set-up; per application one ``8 m``-byte
    all-reduce, ``2 m_p m`` coarse flops and the local products with ``Z``
    and ``K Z``.
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
        self._blocks = DistributedBlockFSAI(matrix, components, telemetry)
        if matrix.n_ranks > 1:
            self._coarse_setup(matrix, np.asarray(points, dtype=float), components, telemetry)

    def _coarse_setup(self, matrix, points, components, telemetry) -> None:
        with get_tracer().span(
            "coarse space setup", kind="solver", n_ranks=int(matrix.n_ranks)
        ) as span:
            labels = aggregate_labels(points, matrix.ranges)
            z, basis = self.modes = rigid_body_modes(points, components, labels)
            self.coarse_dim = m = basis.shape[1]
            span.set(coarse_dim=m, aggregates=int(labels[-1]) + 1)
            kz = sparse.vstack([block @ z for block in matrix.local], format="csr")
            # E^-1 from its Cholesky factor, in place (LAPACK potrf + potri
            # read and fill the upper triangle of the Fortran-ordered E^T,
            # which is E), in Z's own columns: T E^-1 T^T, symmetric.
            coarse = (basis.T @ (z.T @ kz) @ basis).toarray()
            factor, info = lapack.dpotrf(coarse.T, overwrite_a=1)
            if info == 0:
                factor, info = lapack.dpotri(factor, overwrite_c=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"the coarse matrix is not SPD (LAPACK info {info})")
            inverse = np.triu(factor)
            inverse += np.triu(inverse, 1).T
            self._coarse_inverse = basis @ (basis @ inverse).T
            kz.data[np.abs(kz.data) <= KZ_DROP_TOL * np.abs(kz.data).max(initial=0.0)] = 0.0
            kz.eliminate_zeros()
            self._z, self._kzt = z, kz.T.tocsr()
        starts = np.append(matrix.ranges[:, 0], matrix.n)
        kz_nnz = np.diff(kz.indptr[starts]).astype(float)
        # Each rank's kept modes m_p: the columns of T on its aggregates.
        aggregate_rank = np.zeros(z.shape[1] // 6, dtype=np.intp)
        aggregate_rank[labels] = np.repeat(np.arange(matrix.n_ranks), np.diff(starts))
        columns = basis.tocsc()
        column_rank = aggregate_rank[columns.indices[columns.indptr[:-1]] // 6]
        owned = np.bincount(column_rank, minlength=matrix.n_ranks).astype(float)
        # Per application: one Z and one (KZ)^T product, each rank's rows of
        # E^-1; the start's Z^T product takes the (KZ)^T one's place.
        self._products_flops = 6.0 * np.diff(starts) + 2.0 * kz_nnz
        self._start_flops = 12.0 * np.diff(starts)
        self._coarse_flops = 2.0 * m * owned
        if type(telemetry) is not NullTelemetry:
            # KZ: each rank imports six mode values per halo entry and
            # multiplies its rows by them; E's row blocks are summed across
            # ranks and factored on every rank, which then forms its own
            # rows of the inverse.
            telemetry.halo_exchange({k: 6.0 * v for k, v in matrix.halo_pairs.items()})
            telemetry.compute_all(6.0 * matrix.local_nnz + 12.0 * kz_nnz)
            telemetry.allreduce(8.0 * m * m)
            telemetry.compute_all(m**3 / 3.0 + 2.0 * m * m * owned)

    def coarse_correction(self, r: np.ndarray, telemetry=_NULL) -> np.ndarray:
        """``Q r = Z E^-1 Z^T r``: one coarse solve (the start's)."""
        telemetry.compute_all(self._start_flops)
        return self._z @ self._coarse_solve(self._z.T @ r, telemetry)

    def _coarse_solve(self, partials: np.ndarray, telemetry) -> np.ndarray:
        """``E^-1`` of a coarse vector summed over the ranks (one all-reduce)."""
        telemetry.allreduce(8.0 * self.coarse_dim)
        telemetry.compute_all(self._coarse_flops)
        return self._coarse_inverse @ partials

    def solve(self, r: np.ndarray, telemetry=_NULL) -> np.ndarray:
        if not self.coarse_dim:
            return self._blocks.solve(r, telemetry)
        y = self._blocks.solve(r, telemetry)
        # (I - QK) y = y - Z E^-1 (KZ)^T y, since Z^T K = (KZ)^T.
        telemetry.compute_all(self._products_flops)
        y -= self._z @ self._coarse_solve(self._kzt @ y, telemetry)
        return y


class RankReduction:
    """Vector reductions of the Krylov loops, decomposed by rank.

    The distributed counterpart of
    :class:`repro.solver.krylov.SerialReduction`: dots and norms are
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
    preconditioner: DistributedBlockJacobi | DistributedCoarseCorrection | None = None,
    x0: np.ndarray | None = None,
    tol: float = DEFAULT_SOLVER_TOL,
    restart: int = 30,
    max_iter: int = 3000,
    telemetry=_NULL,
    raise_on_fail: bool = False,
) -> KrylovResult:
    """Left-preconditioned restarted GMRES over a row-block matrix.

    Mathematically equivalent to :func:`repro.solver.gmres` (up to the
    Gram-Schmidt variant); the telemetry records the parallel execution.
    ``preconditioner`` is a :class:`DistributedBlockJacobi`, a
    :class:`DistributedCoarseCorrection` or ``None`` (unpreconditioned). Input
    validation and zero-RHS behaviour are the serial solver's: ``x0`` is
    shape-validated, the returned solution is zero, ``history`` is
    ``[0.0]``. Tracing mirrors the serial solver too: a ``gmres`` span
    with one ``restart`` event per cycle, plus a ``preconditioner
    applications`` count attribute.
    """
    with get_tracer().span(
        "gmres", kind="solver", distributed=True, tol=tol, restart=restart
    ) as span:
        x0 = deflated_start(matrix, b, x0, preconditioner, tol, telemetry)
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
) -> KrylovResult:
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
        x0 = deflated_start(matrix, b, x0, preconditioner, tol, telemetry)
        result = cg_loop(
            matrix.n, b, x0, tol, max_iter, raise_on_fail,
            lambda v: matrix.matvec(v, telemetry), _counted(preconditioner, telemetry, span),
            RankReduction(matrix.ranges, telemetry), "distributed_cg",
        )
        span.set(**convergence_attrs(result, tol))
        return result
