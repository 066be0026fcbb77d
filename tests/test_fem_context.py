"""Tests for the scan-invariant solve contexts (cross-scan hot-path reuse).

Covers the symbolic/numeric assembly split, the precomputed Dirichlet
elimination, cache-hit-vs-cold numerical equivalence (and agreement
with the direct serial model), the independence of a solve from the ones before it, and
fingerprint-based invalidation after a resection mesh edit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fem import (
    BRAIN_HETEROGENEOUS,
    BRAIN_HOMOGENEOUS,
    AssemblyContext,
    BiomechanicalModel,
    CacheStats,
    DirichletBC,
    ReductionContext,
    apply_dirichlet,
    assemble_stiffness,
)
from repro.imaging.phantom import Tissue
from repro.mesh.editing import remove_elements_by_material
from repro.mesh.surface import extract_boundary_surface
from repro.parallel import prepare_solve_context, simulate_parallel
from repro.util import ShapeError


@pytest.fixture(scope="module")
def surface_bc(brain_mesh):
    """Deterministic surface displacements on the small brain mesh."""
    surface = extract_boundary_surface(brain_mesh)
    rng = np.random.default_rng(7)
    disp = rng.normal(scale=0.8, size=(len(surface.mesh_nodes), 3))
    return DirichletBC(surface.mesh_nodes, disp)


class TestAssemblyContext:
    def test_matches_direct_assembly(self, brain_mesh):
        ctx = AssemblyContext(brain_mesh, BRAIN_HOMOGENEOUS)
        direct = assemble_stiffness(brain_mesh, BRAIN_HOMOGENEOUS).tocsr()
        cached = ctx.matrix()
        assert np.array_equal(cached.indptr, direct.indptr)
        assert np.array_equal(cached.indices, direct.indices)
        scale = np.abs(direct.data).max()
        assert np.abs(cached.data - direct.data).max() <= 1e-12 * scale

    def test_numeric_refresh_new_materials(self, brain_mesh):
        ctx = AssemblyContext(brain_mesh, BRAIN_HOMOGENEOUS)
        ctx.refresh_numeric(brain_mesh, BRAIN_HETEROGENEOUS)
        direct = assemble_stiffness(brain_mesh, BRAIN_HETEROGENEOUS).tocsr()
        scale = np.abs(direct.data).max()
        assert np.abs(ctx.matrix().data - direct.data).max() <= 1e-12 * scale

    def test_element_dof_indices_cached_on_mesh(self, brain_mesh):
        first = brain_mesh.element_dof_indices()
        assert brain_mesh.element_dof_indices() is first
        assert first.shape == (brain_mesh.n_elements, 12)


class TestReductionContext:
    def test_matches_apply_dirichlet(self, brain_mesh, surface_bc):
        stiffness = assemble_stiffness(brain_mesh, BRAIN_HOMOGENEOUS)
        load = np.zeros(brain_mesh.n_dof)
        direct = apply_dirichlet(stiffness, load, surface_bc)
        ctx = ReductionContext(stiffness.tocsr(), surface_bc.dof_indices())
        reduced = ctx.reduce(surface_bc.dof_values())
        assert np.array_equal(reduced.free_dofs, direct.free_dofs)
        assert np.array_equal(reduced.fixed_dofs, direct.fixed_dofs)
        assert np.allclose(reduced.rhs, direct.rhs, rtol=0, atol=1e-12)
        assert (reduced.matrix != direct.matrix).nnz == 0

    def test_reduce_with_load_vector(self, brain_mesh, surface_bc):
        stiffness = assemble_stiffness(brain_mesh, BRAIN_HOMOGENEOUS)
        load = np.linspace(-1.0, 1.0, brain_mesh.n_dof)
        direct = apply_dirichlet(stiffness, load, surface_bc)
        ctx = ReductionContext(stiffness.tocsr(), surface_bc.dof_indices())
        reduced = ctx.reduce(surface_bc.dof_values(), load)
        assert np.allclose(reduced.rhs, direct.rhs, rtol=0, atol=1e-12)

    def test_rejects_wrong_value_count(self, brain_mesh, surface_bc):
        stiffness = assemble_stiffness(brain_mesh, BRAIN_HOMOGENEOUS).tocsr()
        ctx = ReductionContext(stiffness, surface_bc.dof_indices())
        with pytest.raises(ShapeError):
            ctx.reduce(np.zeros(3))


def _frozen_elimination(matrix, fixed):
    """The CSC-slicing body ``ReductionContext`` had before the one-pass
    row selection, kept as its oracle: ``(free, K_ff, coupling)``."""
    is_fixed = np.zeros(matrix.shape[0], dtype=bool)
    is_fixed[fixed] = True
    free = np.flatnonzero(~is_fixed)
    csc = matrix.tocsc()
    coupling = csc[:, fixed][free, :]
    return free, csc[:, free][free, :].tocsr(), coupling


def _assert_same_bits(a, b):
    assert a.format == b.format and a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestReductionOneRowPass:
    """The reduction's blocks and per-scan rhs are the oracle's, bit for bit."""

    @pytest.fixture(scope="class")
    def stiffness(self, brain_mesh):
        return AssemblyContext(brain_mesh, BRAIN_HETEROGENEOUS).matrix()

    @pytest.mark.parametrize("order", ["node-major", "shuffled"])
    def test_blocks_and_rhs(self, stiffness, surface_bc, order):
        fixed = surface_bc.dof_indices()
        values = surface_bc.dof_values()
        if order == "shuffled":
            perm = np.random.default_rng(4).permutation(len(fixed))
            fixed, values = fixed[perm], values[perm]
        ctx = ReductionContext(stiffness, fixed)
        free0, matrix0, coupling0 = _frozen_elimination(stiffness, fixed)
        assert np.array_equal(ctx.free_dofs, free0)
        _assert_same_bits(ctx.matrix, matrix0)
        _assert_same_bits(ctx.coupling, coupling0)
        load = np.linspace(-1.0, 1.0, stiffness.shape[0])
        assert np.array_equal(ctx.reduce(values).rhs, -(coupling0 @ values))
        assert np.array_equal(
            ctx.reduce(values, load).rhs, load[free0] - coupling0 @ values
        )

    def test_apply_dirichlet_shares_it(self, stiffness, surface_bc):
        load = np.linspace(-1.0, 1.0, stiffness.shape[0])
        reduced = apply_dirichlet(stiffness, load, surface_bc)
        free0, matrix0, coupling0 = _frozen_elimination(stiffness, surface_bc.dof_indices())
        _assert_same_bits(reduced.matrix, matrix0)
        assert np.array_equal(
            reduced.rhs, load[free0] - coupling0 @ surface_bc.dof_values()
        )

    def test_no_fixed_dofs(self, stiffness):
        ctx = ReductionContext(stiffness, np.array([], dtype=np.intp))
        _, matrix0, coupling0 = _frozen_elimination(stiffness, np.array([], dtype=np.intp))
        _assert_same_bits(ctx.matrix, matrix0)
        assert ctx.coupling.shape == coupling0.shape == (stiffness.shape[0], 0)
        assert np.array_equal(ctx.reduce(np.zeros(0)).rhs, np.zeros(stiffness.shape[0]))


class TestParallelContext:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_warm_equals_cold_and_serial(self, brain_mesh, surface_bc, n_ranks):
        cold = simulate_parallel(brain_mesh, surface_bc, n_ranks, tol=1e-12)
        ctx = prepare_solve_context(brain_mesh, surface_bc.node_ids, n_ranks)
        warm = simulate_parallel(
            brain_mesh, surface_bc, n_ranks, tol=1e-12, context=ctx
        )
        assert warm.cache_hit
        assert not cold.cache_hit
        assert np.abs(warm.displacement - cold.displacement).max() <= 1e-10
        serial = BiomechanicalModel(brain_mesh).simulate(surface_bc)
        assert np.abs(warm.displacement - serial.displacement).max() <= 1e-8

    def test_solve_ignores_the_scans_before_it(self, brain_mesh, surface_bc):
        # A context that already solved one scan gives the next the same
        # bits as a context that solved nothing: every solve starts at zero.
        used = prepare_solve_context(brain_mesh, surface_bc.node_ids, 2)
        simulate_parallel(brain_mesh, surface_bc, 2, context=used)
        fresh = prepare_solve_context(brain_mesh, surface_bc.node_ids, 2)
        bc2 = DirichletBC(surface_bc.node_ids, 1.1 * surface_bc.displacements)
        after = simulate_parallel(brain_mesh, bc2, 2, context=used)
        alone = simulate_parallel(brain_mesh, bc2, 2, context=fresh)
        assert after.cache_hit and alone.cache_hit
        assert not after.warm_started
        assert after.solver.iterations == alone.solver.iterations
        assert np.array_equal(after.displacement, alone.displacement)

    def test_warm_start_disabled(self, brain_mesh, surface_bc):
        # Always: a repeated cache-hit solve reports no warm start and
        # repeats the first solve's bits.
        ctx = prepare_solve_context(brain_mesh, surface_bc.node_ids, 2)
        first = simulate_parallel(brain_mesh, surface_bc, 2, context=ctx)
        again = simulate_parallel(brain_mesh, surface_bc, 2, context=ctx)
        assert again.cache_hit and not again.warm_started
        assert np.array_equal(again.displacement, first.displacement)

    def test_reset_warm_state_zeroes_counters_and_keeps_the_build(
        self, brain_mesh, surface_bc
    ):
        ctx = prepare_solve_context(brain_mesh, surface_bc.node_ids, 2)
        simulate_parallel(brain_mesh, surface_bc, 2, context=ctx)
        ctx.reset_warm_state()
        assert (ctx.stats.hits, ctx.stats.misses, ctx.stats.invalidations) == (0, 0, 0)
        assert simulate_parallel(brain_mesh, surface_bc, 2, context=ctx).cache_hit

    def test_rank_change_invalidates(self, brain_mesh, surface_bc):
        ctx = prepare_solve_context(brain_mesh, surface_bc.node_ids, 2)
        result = simulate_parallel(brain_mesh, surface_bc, 4, context=ctx)
        assert not result.cache_hit
        assert ctx.stats.invalidations == 1


class TestInvalidation:
    def test_resection_triggers_rebuild(self, brain_mesh):
        surface = extract_boundary_surface(brain_mesh)
        rng = np.random.default_rng(11)
        disp = rng.normal(scale=0.5, size=(len(surface.mesh_nodes), 3))
        bc = DirichletBC(surface.mesh_nodes, disp)
        ctx = prepare_solve_context(brain_mesh, bc.node_ids, 2)
        hit = simulate_parallel(brain_mesh, bc, 2, tol=1e-12, context=ctx)
        assert hit.cache_hit

        # Intraoperative resection: remove the tumor elements, rebuild
        # the surface BC on the edited mesh.
        assert np.any(brain_mesh.materials == int(Tissue.TUMOR))
        edit = remove_elements_by_material(brain_mesh, (int(Tissue.TUMOR),))
        edited_surface = extract_boundary_surface(edit.mesh)
        rng2 = np.random.default_rng(12)
        disp2 = rng2.normal(scale=0.5, size=(len(edited_surface.mesh_nodes), 3))
        bc2 = DirichletBC(edited_surface.mesh_nodes, disp2)

        rebuilt = simulate_parallel(edit.mesh, bc2, 2, tol=1e-12, context=ctx)
        assert not rebuilt.cache_hit
        assert ctx.stats.invalidations == 1
        cold = simulate_parallel(edit.mesh, bc2, 2, tol=1e-12)
        assert np.abs(rebuilt.displacement - cold.displacement).max() <= 1e-10
        # The rebuilt context is valid for the edited mesh from now on.
        warm = simulate_parallel(edit.mesh, bc2, 2, tol=1e-12, context=ctx)
        assert warm.cache_hit
        assert np.abs(warm.displacement - cold.displacement).max() <= 1e-10

    def test_explicit_invalidate(self, brain_mesh, surface_bc):
        ctx = prepare_solve_context(brain_mesh, surface_bc.node_ids, 2)
        ctx.invalidate()
        assert not ctx.prepared
        assert ctx.assembly is None and ctx.reduction is None
        assert not ctx.slots
        result = simulate_parallel(brain_mesh, surface_bc, 2, context=ctx)
        assert not result.cache_hit
        assert ctx.stats.invalidations == 1


class TestCacheStats:
    def test_snapshot_is_independent(self):
        stats = CacheStats(hits=2, misses=1, invalidations=0)
        snap = stats.snapshot()
        stats.hits += 1
        assert snap.hits == 2
        assert snap.as_dict() == {
            "hits": 2,
            "misses": 1,
            "invalidations": 0,
            "hit_ratio": pytest.approx(2 / 3),
        }


class TestTimelineNotes:
    def test_notes_rendered_in_table(self):
        from repro.core.timeline import Timeline

        tl = Timeline()
        tl.add("stage", 1.0)
        assert "note:" not in tl.as_table()
        tl.note("solve context: hit")
        assert "note: solve context: hit" in tl.as_table()
