"""The pipeline's preconditioner: block FSAI deflated by rigid-body modes.

``DistributedCoarseCorrection`` applies ``P r = (I - QK) B r`` with
``Q = Z E^-1 Z^T`` and ``E = Z^T K Z``, ``Z`` six rigid-body modes on each
aggregate of about ``AGGREGATE_NODES`` free nodes, and the solves start
from ``Q b + (I - QK) x0`` (``deflated_start``). These tests pin the
aggregates (they nest in ranks, a node's rows share one, the cut is the
mesh partitioner's bisection), the modes (orthonormal, dropped where an
aggregate's rows cannot carry them), the algebra against a dense
reference (``E`` is SPD and equals ``Z^T K Z``; the start solves the
coarse space exactly, ``(I - KQ) K Z = 0``; every direction is
``K``-orthogonal to ``Z``; every CG residual keeps ``Z^T r = 0``), that
one rank has no coarse space and solves as before, what the machine model
is charged for it, and that the pipeline builds it once per patient:
every scan is a cache hit, and a checkpoint taken on the paper's
``block`` partition resumes on ``block``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import IntraoperativePipeline
from repro.core.session import SurgicalSession
from repro.experiments.common import build_clinical_system
from repro.fem.context import SolveContext
from repro.imaging.phantom import make_neurosurgery_case
from repro.machines.cost import NullTelemetry, VirtualCluster
from repro.machines.spec import DEEP_FLOW
from repro.mesh.partition import (
    coordinate_bisection,
    partition_block,
    partition_coordinate_bisection,
)
from repro.obs.trace import Tracer, use_tracer
from repro.parallel.simulation import prepare_solve_context, simulate_parallel
from repro.parallel.solver import (
    AGGREGATE_NODES,
    PIPELINE_PRECONDITIONER,
    DistributedCoarseCorrection,
    RankReduction,
    aggregate_labels,
    deflated_start,
    distributed_cg,
    rigid_body_modes,
)
from repro.persist import SessionStore, config_from_manifest
from repro.solver import DEFAULT_SOLVER_TOL
from repro.solver.cg import cg_loop


@pytest.fixture(scope="module")
def system():
    """A ~6 k-equation phantom system, surface displacements up to 4.2 mm."""
    return build_clinical_system(target_equations=6000, shape=(32, 32, 24))


def prepare(system, n_ranks: int, partitioner: str = "coordinate_bisection"):
    return prepare_solve_context(
        system.mesh, system.bc.node_ids, n_ranks,
        partitioner=partitioner, preconditioner=PIPELINE_PRECONDITIONER,
    )


def prepared(system, n_ranks: int, partitioner: str = "coordinate_bisection"):
    """The context's (row-block matrix, coarse preconditioner) at ``n_ranks``."""
    context = prepare(system, n_ranks, partitioner)
    return context.slots["matrix"], context.slots["preconditioner"]


def row_geometry(context) -> tuple[np.ndarray, np.ndarray]:
    """Each free row's node position and component, in the context's numbering."""
    nodes, components = np.divmod(context.reduction.free_dofs, 3)
    return context.slots["decomposition"].mesh.nodes[nodes], components


def dense_modes(pre: DistributedCoarseCorrection) -> np.ndarray:
    """``Z`` as one dense ``(n, m)`` array of orthonormal per-aggregate modes."""
    z, basis = pre.modes
    return (z @ basis).toarray()


def rigid_motion(rng, points: np.ndarray, components: np.ndarray) -> np.ndarray:
    """A random rigid motion ``u = t + w x p``, row ``i`` its ``components[i]``."""
    t, w = rng.normal(size=3), rng.normal(size=3)
    return (t + np.cross(w, points))[np.arange(len(points)), components]


def node_rows(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Three rows (x, y, z) per point: each row's position and component."""
    return np.repeat(points, 3, axis=0), np.tile(np.arange(3), len(points))


class TestRigidBodyModes:
    def test_orthonormal_basis_of_the_six_rigid_motions(self, rng):
        points, components = node_rows(rng.normal(size=(40, 3)) * 10.0)
        labels = np.repeat([0, 1], 60)
        z, basis = rigid_body_modes(points, components, labels)
        assert z.shape == (120, 12) and basis.shape == (12, 12)
        assert np.all(np.diff(z.indptr) == 3)
        dense, modes = z.toarray(), (z @ basis).toarray()
        for aggregate in (0, 1):
            rows = np.flatnonzero(labels == aggregate)
            columns = slice(6 * aggregate, 6 * aggregate + 6)
            block = modes[rows, columns]
            np.testing.assert_allclose(block.T @ block, np.eye(6), atol=1e-12)
            # A rigid motion of the aggregate's nodes lies in the span.
            u = rigid_motion(rng, points[rows], components[rows])
            np.testing.assert_allclose(block @ (block.T @ u), u, atol=1e-9 * np.abs(u).max())
            # Other aggregates' rows carry none of this aggregate's modes.
            assert not np.any(np.delete(dense, rows, axis=0)[:, columns])

    def test_a_rank_drops_the_modes_its_rows_cannot_carry(self):
        # One free node (three DOFs) carries the three translations only.
        points, components = node_rows(np.array([[1.0, 2.0, 3.0]]))
        z, basis = rigid_body_modes(points, components, np.zeros(3, int))
        assert z.shape == (3, 6) and basis.shape == (6, 3)
        modes = (z @ basis).toarray()
        np.testing.assert_allclose(modes.T @ modes, np.eye(3), atol=1e-12)
        # Collinear nodes cannot carry the rotation about their line; a
        # second, full aggregate beside them keeps all six.
        line = np.outer(np.arange(5.0), [1.0, 2.0, -1.0])
        cloud = np.random.default_rng(0).normal(size=(8, 3))
        points, components = node_rows(np.vstack([line, cloud]))
        labels = np.repeat([0, 1], [15, 24])
        z, basis = rigid_body_modes(points, components, labels)
        assert basis.shape == (12, 11)
        assert np.array_equal(np.unique(basis.tocoo().row[basis.tocoo().col < 5] // 6), [0])
        z, basis = rigid_body_modes(np.zeros((0, 3)), np.zeros(0, int), np.zeros(0, int))
        assert z.shape == (0, 0) and basis.shape == (0, 0)


class TestAggregates:
    @pytest.mark.parametrize("n_ranks", [2, 4, 8])
    def test_aggregates_nest_in_ranks(self, system, n_ranks):
        context = prepare(system, n_ranks)
        matrix, pre = context.slots["matrix"], context.slots["preconditioner"]
        points, _ = row_geometry(context)
        labels = aggregate_labels(points, matrix.ranges)
        first = 0
        for a, b in matrix.ranges:
            # Consecutive labels per rank, about AGGREGATE_NODES nodes each.
            parts = max(1, round((b - a) / 3 / AGGREGATE_NODES))
            assert np.array_equal(np.unique(labels[a:b]), first + np.arange(parts))
            first += parts
        # A node's three rows share one aggregate.
        assert np.all(labels.reshape(-1, 3) == labels[::3, None])
        z, basis = pre.modes
        assert z.shape[1] == 6 * first and pre.coarse_dim == basis.shape[1]
        # Every column of Z lives on one rank's rows.
        rank = np.repeat(np.arange(n_ranks), np.diff(matrix.ranges, axis=1).ravel())
        coo = z.tocoo()
        owner = np.full(z.shape[1], -1)
        owner[coo.col] = rank[coo.row]
        assert np.all(owner[coo.col] == rank[coo.row])

    def test_the_cut_is_the_mesh_partitioners_bisection(self, system):
        mesh = system.mesh
        for parts in (1, 3, 8):
            assert np.array_equal(
                partition_coordinate_bisection(mesh, parts), coordinate_bisection(mesh.nodes, parts)
            )


class TestAlgebra:
    @pytest.mark.parametrize("n_ranks", [2, 4, 8])
    def test_coarse_matrix_is_spd_and_is_zt_k_z(self, system, n_ranks):
        matrix, pre = prepared(system, n_ranks)
        # Every aggregate of this system carries its six modes.
        assert pre.coarse_dim == pre.modes[0].shape[1] >= 6 * n_ranks
        z = dense_modes(pre)
        reference = z.T @ (matrix.to_csr() @ z)
        assert np.linalg.eigvalsh(reference).min() > 0
        # The coarse inverse is E^-1 in Z's own (unorthonormalised) columns.
        basis = pre.modes[1].toarray()
        expected = basis @ np.linalg.solve(reference, basis.T)
        np.testing.assert_allclose(
            pre._coarse_inverse, expected, atol=1e-9 * np.abs(expected).max()
        )

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_maps_kz_to_z(self, system, n_ranks):
        """The start solves the coarse space exactly: ``Q K Z = Z``, i.e. the
        deflation projector ``I - KQ`` annihilates ``K Z``."""
        matrix, pre = prepared(system, n_ranks)
        z = dense_modes(pre)
        for column in z.T:
            got = deflated_start(matrix, matrix.matvec(column), None, pre, 1e-5, NullTelemetry())
            np.testing.assert_allclose(got, column, atol=1e-9)

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_every_direction_is_k_orthogonal_to_z(self, system, n_ranks):
        """``Z^T K (I - QK) = 0``: no preconditioned direction moves ``Z^T r``."""
        matrix, pre = prepared(system, n_ranks)
        kz = matrix.to_csr() @ dense_modes(pre)
        for r in np.random.default_rng(n_ranks).standard_normal((3, matrix.n)):
            out = pre.solve(r)
            assert np.abs(kz.T @ out).max() <= 1e-10 * np.abs(kz).max() * np.abs(out).sum()

    @pytest.mark.parametrize("n_ranks", [2, 4, 8])
    def test_every_cg_residual_keeps_zt_r_zero(self, system, n_ranks):
        """From the deflated start, ``Z^T r_k`` (orthonormal ``Z``) stays below
        1e-10 of ``||b||`` at every iterate the preconditioner is given."""
        context = prepare(system, n_ranks)
        sim = simulate_parallel(
            system.mesh, system.bc, n_ranks, partitioner="coordinate_bisection",
            preconditioner=PIPELINE_PRECONDITIONER, context=context,
        )
        matrix, b = sim.system.matrix, sim.system.rhs
        pre = context.slots["preconditioner"]
        z, drift = dense_modes(pre), []

        class Recording:
            coarse_dim = pre.coarse_dim
            coarse_correction = pre.coarse_correction

            def solve(self, r, telemetry=NullTelemetry()):
                drift.append(np.abs(z.T @ r).max())
                return pre.solve(r, telemetry)

        result = distributed_cg(matrix, b, Recording())
        assert result.converged and len(drift) == result.iterations
        assert max(drift) <= 1e-10 * np.linalg.norm(b)

    def test_zero_residual_gives_zero(self, system):
        matrix, pre = prepared(system, 4)
        assert not np.any(pre.solve(np.zeros(matrix.n)))

    def test_one_rank_has_no_coarse_space(self, system):
        """One block cuts no coupling: no modes, no set-up span, and the
        application is the block solve itself."""
        tracer = Tracer()
        with use_tracer(tracer):
            matrix, pre = prepared(system, 1)
        assert pre.coarse_dim == 0 and pre.modes is None
        assert "coarse space setup" not in {span.name for span in tracer.finished()}
        r = np.random.default_rng(5).standard_normal(matrix.n)
        expected = pre._blocks.solve(r).copy()
        np.testing.assert_array_equal(pre.solve(r), expected)
        spy = RecordingTelemetry()
        pre.solve(r, spy)
        assert spy.allreduces == [] and spy.halos == []

    def test_one_rank_solves_as_the_undeflated_loop(self, system):
        """At one rank there is no deflated start: the pipeline's solve is the
        plain CG loop on the block FSAI from zero, bit for bit."""
        context = prepare(system, 1)
        sim = simulate_parallel(
            system.mesh, system.bc, 1, partitioner="coordinate_bisection",
            preconditioner=PIPELINE_PRECONDITIONER, context=context,
        )
        matrix, b = sim.system.matrix, sim.system.rhs
        blocks = context.slots["preconditioner"]._blocks
        expected = cg_loop(
            matrix.n, b, None, DEFAULT_SOLVER_TOL, 3000, False, matrix.matvec, blocks.solve,
            RankReduction(matrix.ranges, NullTelemetry()), "cg",
        )
        assert sim.solver.iterations == expected.iterations
        assert np.array_equal(sim.solver.x, expected.x)


class RecordingTelemetry(NullTelemetry):
    """Records the all-reduce sizes, halo-exchange volumes and compute charges."""

    def __init__(self):
        self.allreduces: list[float] = []
        self.halos: list[float] = []
        self.computes: list[np.ndarray] = []

    def allreduce(self, nbytes: float) -> None:
        self.allreduces.append(nbytes)

    def halo_exchange(self, pair_bytes) -> None:
        self.halos.append(sum(pair_bytes.values()))

    def compute_all(self, flops) -> None:
        self.computes.append(np.asarray(flops, dtype=float))


class TestTelemetry:
    def test_an_application_adds_one_coarse_all_reduce(self, system):
        matrix, pre = prepared(system, 4)
        r = np.random.default_rng(3).standard_normal(matrix.n)
        blocks, coarse = RecordingTelemetry(), RecordingTelemetry()
        pre._blocks.solve(r, blocks)
        pre.solve(r, coarse)
        m = pre.coarse_dim
        assert blocks.allreduces == [] and blocks.halos == []
        assert coarse.allreduces == [8.0 * m] and coarse.halos == []
        # Each rank applies only its own aggregates' rows of E^-1 (the last
        # charge): the ranks' coarse flops sum to one 2 m^2 product, not
        # four replicated ones.
        coarse_flops = coarse.computes[-1]
        assert coarse_flops.shape == (4,) and np.all(coarse_flops > 0)
        assert coarse_flops.sum() == 2.0 * m * m

    def test_set_up_charges_kz_and_the_coarse_factor(self, system):
        context = prepare(system, 4)
        matrix = context.slots["matrix"]
        spy = RecordingTelemetry()
        pre = DistributedCoarseCorrection(matrix, *row_geometry(context), spy)
        m = pre.coarse_dim
        assert spy.halos == [6.0 * sum(matrix.halo_pairs.values())]
        assert spy.allreduces == [8.0 * m * m]

    def test_a_cache_hit_charges_applications_only(self, system, monkeypatch):
        n_ranks = 8
        sizes: list[float] = []
        charge = VirtualCluster.allreduce

        def record(self, nbytes):
            sizes.append(nbytes)
            charge(self, nbytes)

        monkeypatch.setattr(VirtualCluster, "allreduce", record)
        context = SolveContext()
        runs = []
        for _ in range(2):
            sizes.clear()
            tracer = Tracer()
            with use_tracer(tracer):
                sim = simulate_parallel(
                    system.mesh, system.bc, n_ranks, machine=DEEP_FLOW,
                    partitioner="coordinate_bisection",
                    preconditioner=PIPELINE_PRECONDITIONER,
                    context=context,
                )
            (span,) = [s for s in tracer.finished() if s.name == "cg"]
            runs.append((sim.cache_hit, list(sizes), span.attrs["preconditioner_applications"]))
        (miss, miss_sizes, miss_apps), (hit, hit_sizes, hit_apps) = runs
        # 8 m bytes exceed any CG reduction (one 8-byte dot).
        m = context.slots["preconditioner"].coarse_dim
        assert m > 1
        assert not miss and hit
        assert miss_sizes.count(8.0 * m * m) == 1
        assert hit_sizes.count(8.0 * m * m) == 0
        # One coarse solve an application, and one for the deflated start.
        assert miss_sizes.count(8.0 * m) == miss_apps + 1
        assert hit_sizes.count(8.0 * m) == hit_apps + 1


SHAPE = (28, 28, 20)


def fast_config(**overrides) -> PipelineConfig:
    defaults = dict(
        mesh_cell_mm=9.0, n_ranks=2, rigid_levels=1, rigid_max_iter=2,
        rigid_samples=2000, surface_iterations=60, prototypes_per_class=20,
    )
    return PipelineConfig(**(defaults | overrides))


class TestPipelineCache:
    def test_every_scan_after_the_build_is_a_hit(self):
        case0 = make_neurosurgery_case(shape=SHAPE, shift_mm=3.0, seed=7)
        case1 = make_neurosurgery_case(shape=SHAPE, shift_mm=5.0, seed=8)
        pipeline = IntraoperativePipeline(fast_config())
        assert pipeline.config.partitioner == "coordinate_bisection"
        preop = pipeline.prepare_preoperative(case0.preop_mri, case0.preop_labels)
        pre = preop.solve_context.slots["preconditioner"]
        assert isinstance(pre, DistributedCoarseCorrection)
        results = [
            pipeline.process_scan(case.intraop_mri, preop, scan_index=k)
            for k, case in enumerate((case0, case1))
        ]
        hit_share = np.mean([r.simulation.cache_hit for r in results])
        assert hit_share == 1.0
        stats = results[-1].simulation.cache_stats
        assert (stats.hits, stats.misses, stats.invalidations) == (2, 1, 0)

    @pytest.mark.persistence
    def test_a_block_checkpoint_resumes_on_block_and_hits(self, tmp_path):
        case0 = make_neurosurgery_case(shape=SHAPE, shift_mm=3.0, seed=7)
        root = tmp_path / "ckpt"
        session = SurgicalSession.begin(
            IntraoperativePipeline(fast_config(partitioner="block")),
            case0.preop_mri, case0.preop_labels, checkpoint_dir=root,
        )
        session.process(case0.intraop_mri)
        manifest = SessionStore.open(root).manifest["config"]
        assert manifest["partitioner"] == "block"
        # Over a config with the default partitioner, the manifest's wins.
        config = config_from_manifest(manifest, base=fast_config())
        assert config.partitioner == "block"
        resumed = SurgicalSession.resume(IntraoperativePipeline(config), root)
        decomposition = resumed.preop.solve_context.slots["decomposition"]
        # ``block`` gives every rank its run of original node indices.
        mesh = resumed.preop.mesher.mesh
        part = partition_block(mesh, 2)
        assert np.array_equal(part[decomposition.new_to_old], np.repeat([0, 1], np.bincount(part)))
        nxt = make_neurosurgery_case(shape=SHAPE, shift_mm=5.0, seed=8)
        result = resumed.process(nxt.intraop_mri)
        assert result.simulation.cache_hit
