"""Block FSAI, the pipeline's block solver, and the CG solve it serves.

At every rank count ``DistributedCoarseCorrection``'s block solver is
``B = G^T G``: per rank, ``G``'s rows for node ``i`` are the last block
row of ``L^-1``, ``L L^T = A[P_i, P_i]``, with ``P_i`` the node's
neighbours numbered at or before it; with more than one rank a
rigid-body coarse space deflates it. These tests pin ``G`` against a
dense numpy oracle node by node, its pattern, ``G A G^T``'s identity
diagonal blocks, that ``G^T G`` is SPD, the selection rule (FSAI at
every rank count, a coarse space exactly when there is more than one
rank), what the machine model is charged and the node-triple check; and
what CG needs of the whole preconditioner ``P`` (symmetric and positive
on the deflated residuals ``{Z^T r = 0}``) and the accuracy of its field
against a direct solve.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from repro.experiments.common import build_clinical_system
from repro.machines.cost import NullTelemetry
from repro.parallel import RowBlockMatrix
from repro.parallel.simulation import prepare_solve_context, simulate_parallel
from repro.parallel.solver import (
    PIPELINE_PRECONDITIONER,
    DistributedBlockFSAI,
    DistributedCoarseCorrection,
    distributed_cg,
    distributed_gmres,
)
from repro.solver import DEFAULT_SOLVER_TOL, preconditioner
from repro.solver.preconditioner import block_fsai
from repro.util import ShapeError


@pytest.fixture(scope="module")
def system():
    """A ~6 k-equation phantom system, surface displacements up to 4.2 mm."""
    return build_clinical_system(target_equations=6000, shape=(32, 32, 24))


@pytest.fixture(scope="module")
def contexts(system):
    return {
        n_ranks: prepare_solve_context(
            system.mesh, system.bc.node_ids, n_ranks,
            partitioner="coordinate_bisection", preconditioner=PIPELINE_PRECONDITIONER,
        )
        for n_ranks in (1, 2, 4)
    }


def row_geometry(context) -> tuple[np.ndarray, np.ndarray]:
    nodes, components = np.divmod(context.reduction.free_dofs, 3)
    return context.slots["decomposition"].mesh.nodes[nodes], components


def rank_factors(context):
    """Every rank's (diagonal block ``A``, FSAI factor ``G``), as CSR."""
    matrix, pre = context.slots["matrix"], context.slots["preconditioner"]
    g = pre._blocks._g
    return [
        (matrix.local[rank][:, a:b].tocsr(), g[a:b, a:b].tocsr())
        for rank, (a, b) in enumerate(matrix.ranges)
    ]


def node_lower_pattern(a: sparse.csr_matrix) -> sparse.csr_matrix:
    """Node ``i``'s row: the nodes ``j <= i`` whose 3x3 block of ``a`` is stored."""
    m = a.shape[0] // 3
    coo = a.tocoo()
    graph = sparse.csr_matrix(
        (np.ones(coo.nnz), (coo.row // 3, coo.col // 3)), shape=(m, m)
    )
    return sparse.tril(graph, format="csr")


RANKS = pytest.mark.parametrize("n_ranks", [2, 4])


class TestFactor:
    @RANKS
    def test_g_a_gt_has_identity_diagonal_blocks(self, contexts, n_ranks):
        for a, g in rank_factors(contexts[n_ranks]):
            product = (g @ a @ g.T).tocsr()
            diagonal = np.stack(
                [product[i : i + 3, i : i + 3].toarray() for i in range(0, a.shape[0], 3)]
            )
            identity = np.broadcast_to(np.eye(3), diagonal.shape)
            np.testing.assert_allclose(diagonal, identity, atol=1e-10)

    @RANKS
    def test_g_has_exactly_the_node_lower_pattern(self, contexts, n_ranks):
        for a, g in rank_factors(contexts[n_ranks]):
            expected = sparse.kron(node_lower_pattern(a), np.ones((3, 3)), format="csr")
            expected.sort_indices()
            assert np.array_equal(g.indptr, expected.indptr)
            assert np.array_equal(g.indices, expected.indices)

    @RANKS
    def test_every_node_matches_the_dense_cholesky_oracle(self, contexts, n_ranks):
        for a, g in rank_factors(contexts[n_ranks]):
            pattern = node_lower_pattern(a)
            for i in range(a.shape[0] // 3):
                nodes = pattern.indices[pattern.indptr[i] : pattern.indptr[i + 1]]
                dofs = (3 * nodes[:, None] + np.arange(3)).ravel()
                factor = np.linalg.cholesky(a[dofs][:, dofs].toarray())
                expected = np.linalg.inv(factor)[-3:]
                got = g[3 * i : 3 * i + 3][:, dofs].toarray()
                scale = np.abs(expected).max()
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * scale)

    @RANKS
    def test_gt_g_is_spd(self, contexts, n_ranks):
        for _, g in rank_factors(contexts[n_ranks]):
            b = (g.T @ g).toarray()
            np.testing.assert_allclose(b, b.T, atol=1e-12 * np.abs(b).max())
            assert np.linalg.eigvalsh(b).min() > 0

    def test_chunked_batches_give_the_same_g(self, contexts, monkeypatch):
        a, _ = rank_factors(contexts[4])[0]
        whole, flops = block_fsai(a)
        monkeypatch.setattr(preconditioner, "FSAI_CHUNK_DOUBLES", 4000)  # a few nodes a batch
        chunked, chunked_flops = block_fsai(a)
        assert np.array_equal(chunked.indptr, whole.indptr)
        assert np.array_equal(chunked.indices, whole.indices)
        assert np.array_equal(chunked.data, whole.data) and chunked_flops == flops

    def test_a_block_not_in_node_triples_is_refused(self):
        with pytest.raises(ShapeError):
            block_fsai(sparse.identity(4, format="csr"))


ALL_RANKS = pytest.mark.parametrize("n_ranks", [1, 2, 4])


class TestSelection:
    @ALL_RANKS
    def test_fsai_at_every_rank_count(self, contexts, n_ranks):
        pre = contexts[n_ranks].slots["preconditioner"]
        assert isinstance(pre._blocks, DistributedBlockFSAI)
        assert (pre.coarse_dim > 0) == (n_ranks > 1)

    def test_one_rank_solve_is_fsai_and_cg(self, system, contexts):
        context = contexts[1]
        matrix, pre = context.slots["matrix"], context.slots["preconditioner"]
        r = np.random.default_rng(11).standard_normal(matrix.n)
        expected = DistributedBlockFSAI(matrix, row_geometry(context)[1]).solve(r).copy()
        assert np.array_equal(pre.solve(r), expected)
        sim = simulate_parallel(
            system.mesh, system.bc, 1, partitioner="coordinate_bisection",
            preconditioner=PIPELINE_PRECONDITIONER, context=context,
        )
        expected = distributed_cg(sim.system.matrix, sim.system.rhs, pre)
        assert sim.solver.converged and sim.solver.restarts == 0
        assert np.array_equal(sim.solver.x, expected.x)

    def test_rows_that_split_a_node_raise(self, contexts):
        context = contexts[2]
        matrix = context.slots["matrix"]
        cut = int(matrix.ranges[0, 1]) + 1
        shifted = RowBlockMatrix.from_csr(matrix.to_csr(), np.array([[0, cut], [cut, matrix.n]]))
        with pytest.raises(ShapeError):
            DistributedCoarseCorrection(shifted, *row_geometry(context))
        # Whole-length ranks whose rows do not read x, y, z node by node.
        _, components = row_geometry(context)
        with pytest.raises(ShapeError):
            DistributedBlockFSAI(matrix, np.roll(components, 1))


class ChargeLog(NullTelemetry):
    """Records every charge it is given."""

    def __init__(self):
        self.computes: list[np.ndarray] = []
        self.allreduces: list[float] = []
        self.halos: list[float] = []

    def compute_all(self, flops) -> None:
        self.computes.append(np.asarray(flops, dtype=float))

    def allreduce(self, nbytes: float) -> None:
        self.allreduces.append(nbytes)

    def halo_exchange(self, pair_bytes) -> None:
        self.halos.append(sum(pair_bytes.values()))


class TestCharges:
    @RANKS
    def test_an_apply_is_four_flops_per_g_nonzero_and_no_communication(self, contexts, n_ranks):
        context = contexts[n_ranks]
        matrix, pre = context.slots["matrix"], context.slots["preconditioner"]
        log = ChargeLog()
        pre._blocks.solve(np.ones(matrix.n), log)
        assert log.allreduces == [] and log.halos == []
        (flops,) = log.computes
        nnz = [g.nnz for _, g in rank_factors(context)]
        np.testing.assert_array_equal(flops, 4.0 * np.array(nnz))

    def test_set_up_charges_each_ranks_batched_solves(self, contexts):
        context = contexts[4]
        matrix = context.slots["matrix"]
        log = ChargeLog()
        DistributedBlockFSAI(matrix, row_geometry(context)[1], log)
        (flops,) = log.computes
        expected = []
        for a, _ in rank_factors(context):
            sizes = 3.0 * np.diff(node_lower_pattern(a).indptr)
            expected.append(np.sum(2.0 / 3.0 * sizes**3 + 6.0 * sizes**2))
        np.testing.assert_allclose(flops, expected)
        assert log.allreduces == [] and log.halos == []


def deflated(pre, vectors: np.ndarray) -> np.ndarray:
    """``vectors`` with their components along the coarse modes removed."""
    if not pre.coarse_dim:
        return vectors
    z, basis = pre.modes
    w = (z @ basis).toarray()
    return vectors - (vectors @ w) @ w.T


class TestCG:
    """What CG needs of the pipeline's preconditioner, and what it delivers."""

    @ALL_RANKS
    def test_the_preconditioner_is_symmetric(self, contexts, n_ranks):
        """``s^T P r = r^T P s`` where CG uses it: on ``{Z^T r = 0}``, the
        residuals of a deflated solve (everywhere at one rank, ``P = B``)."""
        context = contexts[n_ranks]
        pre, n = context.slots["preconditioner"], context.slots["matrix"].n
        rng = np.random.default_rng(n_ranks)
        for _ in range(3):
            u, v = deflated(pre, rng.standard_normal((2, n)))
            mu, mv = pre.solve(u).copy(), pre.solve(v).copy()
            scale = np.linalg.norm(u) * np.linalg.norm(mv)
            assert abs(u @ mv - mu @ v) <= 1e-12 * scale

    @ALL_RANKS
    def test_the_preconditioner_is_positive(self, contexts, n_ranks):
        context = contexts[n_ranks]
        pre, matrix = context.slots["preconditioner"], context.slots["matrix"]
        rng = np.random.default_rng(10 + n_ranks)
        # Random vectors, and smooth low-energy ones, on {Z^T r = 0}.
        points, _ = row_geometry(context)
        smooth = np.stack([points[:, k] ** 2 for k in range(3)]) / np.abs(points).max() ** 2
        for v in deflated(pre, np.vstack([rng.standard_normal((3, matrix.n)), smooth])):
            assert v @ pre.solve(v) > 0

    @ALL_RANKS
    def test_the_cg_field_is_no_further_from_the_direct_solve_than_gmres(
        self, system, contexts, n_ranks
    ):
        context = contexts[n_ranks]
        sim = simulate_parallel(
            system.mesh, system.bc, n_ranks, partitioner="coordinate_bisection",
            preconditioner=PIPELINE_PRECONDITIONER, context=context,
        )
        cg, matrix, rhs = sim.solver, sim.system.matrix.to_csr(), sim.system.rhs
        gmres = distributed_gmres(sim.system.matrix, rhs, context.slots["preconditioner"])
        exact = spsolve(matrix.tocsc(), rhs)
        assert cg.converged and gmres.converged
        assert np.abs(cg.x - exact).max() <= np.abs(gmres.x - exact).max()
        # CG stops on the true residual, at the production tolerance, and
        # its field is the direct solve's to a few times that tolerance.
        residual = np.linalg.norm(rhs - matrix @ cg.x)
        assert residual <= 1.01 * DEFAULT_SOLVER_TOL * np.linalg.norm(rhs)
        assert np.linalg.norm(cg.x - exact) <= 5 * DEFAULT_SOLVER_TOL * np.linalg.norm(exact)
