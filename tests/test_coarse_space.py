"""The pipeline's preconditioner: block Jacobi balanced by rigid-body modes.

``DistributedCoarseCorrection`` applies ``M = (I - QK) B (I - KQ) + Q``
with ``Q = Z E^-1 Z^T`` and ``E = Z^T K Z``, ``Z`` six rigid-body modes per
rank on its own free DOFs. These tests pin the algebra against a dense
reference (``E`` is SPD and equals ``Z^T K Z``; ``M K Z = Z``; a zero
residual gives zero), that one rank has no coarse space, what the machine
model is charged for it, and that the pipeline builds it once per patient:
every scan is a cache hit, and a checkpoint taken on the paper's ``block``
partition resumes on ``block``.
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
from repro.mesh.partition import partition_block
from repro.obs.trace import Tracer, use_tracer
from repro.parallel.simulation import prepare_solve_context, simulate_parallel
from repro.parallel.solver import (
    PIPELINE_PRECONDITIONER,
    DistributedCoarseCorrection,
    rigid_body_modes,
)
from repro.persist import SessionStore, config_from_manifest


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
    """``Z`` as one dense ``(n, m)`` array of orthonormal per-rank modes."""
    z, basis = pre.modes
    return z.toarray() @ basis


def rigid_motion(rng, points: np.ndarray, components: np.ndarray) -> np.ndarray:
    """A random rigid motion ``u = t + w x p``, row ``i`` its ``components[i]``."""
    t, w = rng.normal(size=3), rng.normal(size=3)
    return (t + np.cross(w, points))[np.arange(len(points)), components]


class TestRigidBodyModes:
    def test_orthonormal_basis_of_the_six_rigid_motions(self, rng):
        points = rng.normal(size=(40, 3)) * 10.0
        nodes = np.repeat(np.arange(40), 3)
        components = np.tile(np.arange(3), 40)
        ranges = np.array([[0, 60], [60, 120]])
        z, basis = rigid_body_modes(points[nodes], components, ranges)
        assert z.shape == (120, 12) and basis.shape == (12, 12)
        assert np.all(np.diff(z.indptr) == 3)
        dense = z.toarray()
        for rank, (a, b) in enumerate(ranges):
            columns = slice(6 * rank, 6 * rank + 6)
            block = (dense @ basis)[a:b, columns]
            np.testing.assert_allclose(block.T @ block, np.eye(6), atol=1e-12)
            # A rigid motion of the rank's nodes lies in the span.
            u = rigid_motion(rng, points[nodes[a:b]], components[a:b])
            np.testing.assert_allclose(block @ (block.T @ u), u, atol=1e-9 * np.abs(u).max())
            # Other ranks' rows carry none of this rank's modes.
            assert not np.any(np.delete(dense, np.arange(a, b), axis=0)[:, columns])

    def test_a_rank_drops_the_modes_its_rows_cannot_carry(self):
        # One free node (three DOFs) carries the three translations only.
        points = np.array([[1.0, 2.0, 3.0]] * 3)
        z, basis = rigid_body_modes(points, np.arange(3), np.array([[0, 3]]))
        assert z.shape == (3, 6) and basis.shape == (6, 3)
        np.testing.assert_allclose((z @ basis).T @ (z @ basis), np.eye(3), atol=1e-12)
        z, basis = rigid_body_modes(np.zeros((0, 3)), np.zeros(0, int), np.array([[0, 0]]))
        assert z.shape == (0, 6) and basis.shape == (6, 0)


class TestAlgebra:
    @pytest.mark.parametrize("n_ranks", [2, 4, 8])
    def test_coarse_matrix_is_spd_and_is_zt_k_z(self, system, n_ranks):
        matrix, pre = prepared(system, n_ranks)
        assert pre.coarse_dim == 6 * n_ranks
        z = dense_modes(pre)
        reference = z.T @ (matrix.to_csr() @ z)
        assert np.linalg.eigvalsh(reference).min() > 0
        # The coarse inverse is E^-1 in Z's own (unorthonormalised) columns.
        _, basis = pre.modes
        expected = basis @ np.linalg.solve(reference, basis.T)
        np.testing.assert_allclose(
            pre._coarse_inverse, expected, atol=1e-9 * np.abs(expected).max()
        )

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_maps_kz_to_z(self, system, n_ranks):
        matrix, pre = prepared(system, n_ranks)
        z = dense_modes(pre)
        for column in z.T:
            got = pre.solve(matrix.matvec(column)).copy()
            np.testing.assert_allclose(got, column, atol=1e-9)

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


class RecordingTelemetry(NullTelemetry):
    """Records the all-reduce sizes and halo-exchange volumes it is charged."""

    def __init__(self):
        self.allreduces: list[float] = []
        self.halos: list[float] = []

    def allreduce(self, nbytes: float) -> None:
        self.allreduces.append(nbytes)

    def halo_exchange(self, pair_bytes) -> None:
        self.halos.append(sum(pair_bytes.values()))


class TestTelemetry:
    def test_an_application_adds_two_coarse_all_reduces(self, system):
        matrix, pre = prepared(system, 4)
        r = np.random.default_rng(3).standard_normal(matrix.n)
        blocks, coarse = RecordingTelemetry(), RecordingTelemetry()
        pre._blocks.solve(r, blocks)
        pre.solve(r, coarse)
        assert blocks.allreduces == [] and blocks.halos == []
        assert coarse.allreduces == [8.0 * 6 * 4] * 2 and coarse.halos == []

    def test_set_up_charges_kz_and_the_coarse_factor(self, system):
        context = prepare(system, 4)
        matrix = context.slots["matrix"]
        spy = RecordingTelemetry()
        DistributedCoarseCorrection(matrix, *row_geometry(context), spy)
        m = 6 * 4
        assert spy.halos == [6.0 * sum(matrix.halo_pairs.values())]
        assert spy.allreduces == [8.0 * m * m]

    def test_a_cache_hit_charges_applications_only(self, system, monkeypatch):
        n_ranks, m = 8, 48  # 8 m bytes exceed any CG reduction (one 8-byte dot)
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
        assert not miss and hit
        assert miss_sizes.count(8.0 * m * m) == 1
        assert hit_sizes.count(8.0 * m * m) == 0
        assert miss_sizes.count(8.0 * m) == 2 * miss_apps
        assert hit_sizes.count(8.0 * m) == 2 * hit_apps


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
