"""A patient model holds one copy of what it keeps (parallel layer).

Row blocks are views of the reduced matrix they were split from, the
coupling count reads ``indptr`` instead of slicing ``K``, and the block
factors are never extracted into a second (cached) copy unless a
telemetry that keeps accounts asks for their nonzero count.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.fem import BRAIN_HOMOGENEOUS, DirichletBC, SolveContext
from repro.machines import DEEP_FLOW
from repro.machines.cost import NullTelemetry, VirtualCluster
from repro.mesh.partition import partition_block
from repro.mesh.surface import extract_boundary_surface
from repro.parallel.assembly import build_distributed_system, serial_reference_system
from repro.parallel.decomposition import Decomposition
from repro.parallel.distributed import RowBlockMatrix
from repro.parallel.solver import (
    FACTOR_FLOPS_PER_NNZ,
    SOLVE_FLOPS_PER_NNZ,
    DistributedBlockJacobi,
    distributed_gmres,
)


@st.composite
def matrix_and_ranges(draw):
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    A = sparse.random(n, n, density=density, random_state=np.random.default_rng(seed),
                      format="csr")
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=5)))  # repeats = empty ranks
    bounds = [0, *cuts, n]
    return A, np.array(list(zip(bounds[:-1], bounds[1:])), dtype=np.intp), seed


class TestRowBlocksShareMemory:
    @settings(max_examples=80, deadline=None)
    @given(matrix_and_ranges())
    def test_blocks_are_views_equal_to_row_slices(self, case):
        A, ranges, seed = case
        M = RowBlockMatrix.from_csr(A, ranges)
        assert np.array_equal(M.ranges, ranges)
        for rank, (a, b) in enumerate(ranges):
            block, want = M.local[rank], A[a:b, :]
            assert block.shape == want.shape and block.dtype == want.dtype
            assert np.array_equal(block.indptr, want.indptr)
            assert np.array_equal(block.indices, want.indices)
            assert np.array_equal(block.data, want.data)
            block.copy().check_format(full_check=True)  # in place it would prune = copy
            assert M.local_nnz[rank] == want.nnz
            if want.nnz:
                assert np.shares_memory(block.data, A.data)
                assert np.shares_memory(block.indices, A.indices)
            for c, d in ranges:  # the preconditioner's diagonal-block slicing
                assert (block[:, c:d] != want[:, c:d]).nnz == 0
        x = np.random.default_rng(seed).standard_normal(A.shape[0])
        assert np.array_equal(M.matvec(x), A @ x)
        back = M.to_csr()
        assert (back != A).nnz == 0 and back.nnz == A.nnz

    def test_short_views_are_not_copied(self):
        """A block under half the source is exactly what scipy's
        constructor would copy (``_prune_array``) even with copy=False."""
        A = sparse.random(64, 64, density=0.2, random_state=np.random.default_rng(3),
                          format="csr")
        ranges = np.array([[0, 4], [4, 60], [60, 64]], dtype=np.intp)
        M = RowBlockMatrix.from_csr(A, ranges)
        assert all(np.shares_memory(block.data, A.data) for block in M.local)
        own = sum(block.indptr.nbytes for block in M.local)
        assert own <= 2 * A.indptr.nbytes


@pytest.fixture(scope="module")
def decomposed(brain_mesh):
    surface = extract_boundary_surface(brain_mesh)
    displacements = np.random.default_rng(7).normal(0.0, 0.8, (len(surface.mesh_nodes), 3))
    dec = Decomposition.from_partition(brain_mesh, partition_block(brain_mesh, 4))
    return dec, DirichletBC(dec.old_to_new[surface.mesh_nodes], displacements)


class TestDistributedSystemCopies:
    def test_with_and_without_a_context_bit_for_bit(self, decomposed):
        """One build path: a context only stores what the build made. Both
        equal the one-shot ``assemble_stiffness`` + ``apply_dirichlet``
        elimination the build without a context ran before."""
        dec, bc = decomposed
        context = SolveContext()
        stored = build_distributed_system(dec, BRAIN_HOMOGENEOUS, bc, context=context)
        plain = build_distributed_system(dec, BRAIN_HOMOGENEOUS, bc)
        reference = serial_reference_system(dec, BRAIN_HOMOGENEOUS, bc)
        assert context.assembly is not None and context.reduction is not None
        for system in (stored, plain):
            csr = system.matrix.to_csr()
            for name in ("data", "indices", "indptr"):
                assert getattr(csr, name).tobytes() == getattr(reference.matrix, name).tobytes()
            assert system.rhs.tobytes() == reference.rhs.tobytes()
            assert np.array_equal(system.free_dofs, reference.free_dofs)
            assert np.array_equal(system.dof_ranges, stored.dof_ranges)

    def test_coupling_counts_equal_the_sliced_count(self, decomposed):
        dec, bc = decomposed
        context = SolveContext()
        system = build_distributed_system(dec, BRAIN_HOMOGENEOUS, bc, context=context)
        K = context.assembly.matrix()
        is_fixed = np.zeros(K.shape[0], dtype=bool)
        is_fixed[system.fixed_dofs] = True
        want = [
            float(np.count_nonzero(is_fixed[K[a:b, :].indices])) for a, b in dec.dof_ranges()
        ]
        assert list(context.slots["coupling_per_rank"]) == want

    def test_row_blocks_of_a_patient_model_are_views_of_the_reduced_matrix(self, decomposed):
        dec, bc = decomposed
        context = SolveContext()
        system = build_distributed_system(dec, BRAIN_HOMOGENEOUS, bc, context=context)
        pre = DistributedBlockJacobi(system.matrix)
        assert distributed_gmres(system.matrix, system.rhs, pre).converged
        reduced = context.reduction.matrix
        for block in system.matrix.local:
            assert np.shares_memory(block.data, reduced.data)
            assert np.shares_memory(block.indices, reduced.indices)


def extraction_bytes(factors) -> int:
    """Bytes allocated by reading ``L`` and ``U`` of every factor now:
    the size of both CSC copies if they were not cached, ~0 if they were."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = [(lu.L, lu.U) for lu in factors]
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        del held


class TestLazyFactorCount:
    def system(self, decomposed):
        dec, bc = decomposed
        return build_distributed_system(dec, BRAIN_HOMOGENEOUS, bc)

    def test_null_telemetry_never_extracts_the_factors(self, decomposed):
        system = self.system(decomposed)
        pre = DistributedBlockJacobi(system.matrix, NullTelemetry())
        pre.solve(system.rhs)
        pre.solve(system.rhs, NullTelemetry())
        assert "_factor_nnz" not in vars(pre)
        stored = 12 * sum(lu.nnz for lu in pre._factors)
        assert extraction_bytes(pre._factors) > 0.9 * stored  # nothing was cached
        assert extraction_bytes(pre._factors) < 0.01 * stored  # now it is: the probe works

    def test_virtual_cluster_charges_are_the_eager_ones(self, decomposed):
        system = self.system(decomposed)
        matrix, n_ranks = system.matrix, system.matrix.n_ranks
        cluster = VirtualCluster(DEEP_FLOW, n_ranks)
        pre = DistributedBlockJacobi(matrix, cluster)
        nnz = np.array([lu.L.nnz + lu.U.nnz for lu in pre._factors], dtype=float)
        assert np.array_equal(pre._factor_nnz, nnz) and pre._factor_nnz.dtype == float
        assert cluster.flops_total == FACTOR_FLOPS_PER_NNZ * nnz.sum()
        pre.solve(system.rhs, cluster)
        assert cluster.flops_total == (FACTOR_FLOPS_PER_NNZ + SOLVE_FLOPS_PER_NNZ) * nnz.sum()
        # Built without accounts, charged later: counted on that first charge.
        late = DistributedBlockJacobi(matrix)
        assert "_factor_nnz" not in vars(late)
        other = VirtualCluster(DEEP_FLOW, n_ranks)
        late.solve(system.rhs, other)
        assert other.flops_total == SOLVE_FLOPS_PER_NNZ * nnz.sum()
