"""The blocked, retention-free numeric assembly.

``K`` must stay bit-identical to a one-shot ``coo_accumulate`` over all
``144 m`` triplets whatever the block size, nothing element-sized beyond
``16 m`` int32 may be retained or (at the shipped block size) allocated,
and the whole-array views the probes read must still derive on request.
"""

from __future__ import annotations

import gc
import tracemalloc
import types
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import get_backend
from repro.fem import BRAIN_HETEROGENEOUS, BRAIN_HOMOGENEOUS, AssemblyContext, assembly
from repro.fem.assembly import (
    ASSEMBLY_BLOCK_ELEMENTS,
    assemble_stiffness,
    build_csr_pattern,
    element_stiffness_matrices,
    fill_csr_values,
    node_pair_pattern,
)
from repro.fem.element import (
    element_stiffness_from_B,
    shape_function_gradients,
    strain_displacement_matrices,
)
from repro.mesh.generator import mesh_labeled_volume
from repro.mesh.surface import extract_boundary_surface
from repro.parallel import prepare_solve_context
from tests.conftest import BRAIN_LABELS
from tests.test_fem_assembly_bc import _connectivity


def block_sizes(m: int) -> list[int]:
    return sorted({1, 7, max(m - 1, 1), m, m + 1, ASSEMBLY_BLOCK_ELEMENTS})


def one_shot(elements, n_nodes, Ke) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(data, indices, indptr) by the whole-mesh scatter map and one accumulate."""
    scatter, indices, indptr = build_csr_pattern(elements, n_nodes)
    return get_backend().coo_accumulate(scatter, Ke.ravel(), len(indices)), indices, indptr


def csr_bytes(K) -> int:
    return K.data.nbytes + K.indices.nbytes + K.indptr.nbytes


def reachable_arrays(root) -> list[np.ndarray]:
    """Every ndarray (and the bases of views) reachable from ``root``."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
            types.MethodType, str, bytes, int, float)
    arrays, stack, seen = [], [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        stack.extend(gc.get_referents(obj))
    return arrays


@st.composite
def connectivity_and_matrices(draw):
    """Random tetrahedral connectivity with element matrices whose sum is
    order-sensitive (sixteen decades of magnitude)."""
    elements, n_nodes = draw(_connectivity())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (len(elements), 12, 12)
    Ke = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
    return elements, n_nodes, Ke


class TestBlockedFillIsTheOneShotAccumulation:
    @settings(max_examples=60, deadline=None)
    @given(connectivity_and_matrices())
    def test_random_connectivity_every_block_size(self, case):
        elements, n_nodes, Ke = case
        want, indices, indptr = one_shot(elements, n_nodes, Ke)
        got_indices, got_indptr, pair_offset = node_pair_pattern(elements, n_nodes)
        assert np.array_equal(got_indices, indices) and got_indices.dtype == indices.dtype
        assert np.array_equal(got_indptr, indptr) and got_indptr.dtype == indptr.dtype
        assert pair_offset.shape == (len(elements), 4, 4) and pair_offset.dtype == np.int32
        for size in block_sizes(len(elements)):
            with mock.patch.object(assembly, "ASSEMBLY_BLOCK_ELEMENTS", size):
                data = fill_csr_values(elements, indptr, pair_offset, Ke.__getitem__)
            assert np.array_equal(data, want), size

    def test_phantom_mesh_every_block_size(self, brain_mesh):
        mesh = brain_mesh
        Ke = element_stiffness_matrices(mesh, BRAIN_HOMOGENEOUS)
        want, indices, indptr = one_shot(mesh.elements, mesh.n_nodes, Ke)
        for size in block_sizes(mesh.n_elements):
            with mock.patch.object(assembly, "ASSEMBLY_BLOCK_ELEMENTS", size):
                matrices = (
                    AssemblyContext(mesh, BRAIN_HOMOGENEOUS).matrix(),
                    assemble_stiffness(mesh, BRAIN_HOMOGENEOUS),
                    assemble_stiffness(mesh, BRAIN_HOMOGENEOUS, element_matrices=Ke),
                )
            for K in matrices:
                assert np.array_equal(K.data, want), size
                assert np.array_equal(K.indices, indices)
                assert np.array_equal(K.indptr, indptr)

    def test_a_block_sized_bincount_added_afterwards_is_not_exact(self, brain_mesh):
        """Why the fill is a running scatter-add: the cheaper-looking
        per-block ``bincount`` summed into the total rounds differently."""
        mesh = brain_mesh
        Ke = element_stiffness_matrices(mesh, BRAIN_HOMOGENEOUS).reshape(-1)
        scatter, indices, _ = build_csr_pattern(mesh.elements, mesh.n_nodes)
        want = np.bincount(scatter, weights=Ke, minlength=len(indices))
        step = 144 * 7
        summed = np.zeros(len(indices))
        for start in range(0, len(scatter), step):
            block = slice(start, start + step)
            summed += np.bincount(scatter[block], weights=Ke[block], minlength=len(indices))
        assert not np.array_equal(summed, want)
        np.testing.assert_allclose(summed, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_refresh_numeric_equals_a_fresh_context(self, brain_mesh):
        ctx = AssemblyContext(brain_mesh, BRAIN_HOMOGENEOUS)
        homogeneous = ctx.matrix().data.copy()
        ctx.refresh_numeric(brain_mesh, BRAIN_HETEROGENEOUS)
        fresh = AssemblyContext(brain_mesh, BRAIN_HETEROGENEOUS).matrix()
        assert np.array_equal(ctx.matrix().data, fresh.data)
        assert np.array_equal(ctx.matrix().indices, fresh.indices)
        assert not np.array_equal(fresh.data, homogeneous)
        assert np.array_equal(ctx.element_matrices,
                              element_stiffness_matrices(brain_mesh, BRAIN_HETEROGENEOUS))


class TestMatmulElementKernel:
    def test_within_rounding_of_the_einsum_it_replaced(self, brain_mesh):
        gradients, volumes = shape_function_gradients(brain_mesh.element_coordinates())
        B = strain_displacement_matrices(gradients)
        D = BRAIN_HETEROGENEOUS.elasticity_for_elements(brain_mesh.materials)
        V = np.abs(volumes)
        frozen = np.einsum("mji,mjk->mik", B, np.einsum("mij,mjk->mik", D, B))
        frozen *= V[:, None, None]
        got = element_stiffness_from_B(B, V, D)
        assert got.shape == frozen.shape and got.flags.c_contiguous
        largest = np.abs(frozen).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(got - frozen) <= 4 * np.spacing(largest))


class TestDerivedNotRetained:
    def test_whole_arrays_derive_equal_and_are_not_kept(self, brain_mesh):
        mesh = brain_mesh
        ctx = AssemblyContext(mesh, BRAIN_HOMOGENEOUS)
        scatter, _, _ = build_csr_pattern(mesh.elements, mesh.n_nodes)
        Ke = element_stiffness_matrices(mesh, BRAIN_HOMOGENEOUS)
        for got, want in ((ctx.scatter, scatter), (ctx.element_matrices, Ke)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert ctx.B.shape == (mesh.n_elements, 6, 12)
        assert ctx.nnz == len(ctx.indices) == ctx.matrix().nnz
        # A new array per read, and nothing holds on to it afterwards.
        assert ctx.scatter is not ctx.scatter
        assert ctx.element_matrices is not ctx.element_matrices
        for name in ("scatter", "element_matrices", "B"):
            array = getattr(ctx, name)
            owner = array if array.base is None else array.base
            alive = weakref.ref(owner)
            del array, owner
            gc.collect()
            assert alive() is None, name
        assert max(a.size for a in reachable_arrays(ctx)) <= max(16 * mesh.n_elements, ctx.nnz)


class TestMemoryContract:
    """Peak <= 4x and retained <= 2x the CSR matrix built (parent: 13x / 10.6x)."""

    @pytest.fixture(scope="class")
    def fine_mesh(self, small_case):
        mesh = mesh_labeled_volume(small_case.preop_labels, 5.5, BRAIN_LABELS).mesh
        assert mesh.n_elements >= 20_000
        return mesh

    def test_assembly_context_peak_and_retained(self, fine_mesh):
        AssemblyContext(fine_mesh, BRAIN_HOMOGENEOUS)  # caches on the mesh, imports
        gc.collect()
        tracemalloc.start()
        try:
            ctx = AssemblyContext(fine_mesh, BRAIN_HOMOGENEOUS)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix_bytes = csr_bytes(ctx.matrix())
        assert peak <= 4 * matrix_bytes, peak / matrix_bytes
        assert retained <= 2 * matrix_bytes, retained / matrix_bytes

    def test_nothing_element_sized_reachable_from_a_patient_model(self, fine_mesh):
        nodes = extract_boundary_surface(fine_mesh).mesh_nodes
        context = prepare_solve_context(fine_mesh, nodes, n_ranks=4)
        m = fine_mesh.n_elements
        sizes = sorted(a.size for a in reachable_arrays(context))
        assert sizes[-1] < 72 * m, sizes[-3:]
        # The largest thing a model holds is a matrix, not an element array.
        assert sizes[-1] <= context.assembly.nnz
