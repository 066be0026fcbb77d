"""Tests for the restricted additive Schwarz preconditioner (``DistributedRAS``)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import linalg as spla

from repro.parallel.distributed import RowBlockMatrix
from repro.parallel.solver import DistributedRAS
from repro.solver.gmres import gmres
from repro.solver.preconditioner import incomplete_factor
from repro.util import ValidationError
from tests.conftest import block_jacobi, contiguous_ranges


def ras(matrix, ranges, overlap: int = 1, factorization: str = "lu") -> DistributedRAS:
    """RAS over ``ranges`` of a plain sparse matrix (exact subdomain LU by default)."""
    return DistributedRAS(
        RowBlockMatrix.from_csr(matrix, np.asarray(ranges)),
        overlap=overlap,
        factorization=factorization,
    )


def _frozen_ras_apply(matrix, ranges, overlap, factorization, r):
    """The serial ``RestrictedAdditiveSchwarz`` (``repro.solver.schwarz``)
    that ``DistributedRAS`` wrapped, frozen verbatim when the two were
    merged: grow each owned range by ``overlap`` matrix-graph layers,
    factor every grown subdomain block one after another, solve on it and
    keep the owned rows. It pins the merged class bit for bit."""
    csr = matrix.tocsr()
    out = np.empty(matrix.shape[0])
    for a, b in ranges:
        grown = np.arange(a, b, dtype=np.intp)
        for _ in range(overlap):
            rows = csr[grown, :]
            grown = np.unique(np.concatenate([grown, rows.indices.astype(np.intp)]))
        block = csr[grown, :][:, grown].tocsc()
        factor = spla.splu(block) if factorization == "lu" else incomplete_factor(block)
        own = np.searchsorted(grown, np.arange(a, b, dtype=np.intp))
        out[a:b] = factor.solve(np.asarray(r, dtype=float)[grown])[own]
    return out


@pytest.fixture(scope="module")
def fem_system():
    from repro.fem.assembly import assemble_stiffness
    from repro.fem.bc import DirichletBC, apply_dirichlet
    from repro.fem.material import BRAIN_HOMOGENEOUS
    from repro.imaging.phantom import make_neurosurgery_case
    from repro.mesh.generator import mesh_labeled_volume
    from repro.mesh.surface import extract_boundary_surface
    from tests.conftest import BRAIN_LABELS

    case = make_neurosurgery_case(shape=(32, 32, 24), shift_mm=5.0, seed=42)
    mesh = mesh_labeled_volume(case.preop_labels, 8.0, BRAIN_LABELS).mesh
    surf = extract_boundary_surface(mesh)
    rng = np.random.default_rng(3)
    bc = DirichletBC(surf.mesh_nodes, rng.normal(0, 1.0, (len(surf.mesh_nodes), 3)))
    K = assemble_stiffness(mesh, BRAIN_HOMOGENEOUS)
    reduced = apply_dirichlet(K, np.zeros(mesh.n_dof), bc)
    n = reduced.n_free
    bounds = np.linspace(0, n, 9).astype(int)
    ranges = list(zip(bounds[:-1], bounds[1:]))
    return reduced.matrix, reduced.rhs, ranges


class TestRAS:
    def test_zero_overlap_matches_block_jacobi(self, fem_system):
        matrix, rhs, ranges = fem_system
        r = np.random.default_rng(0).normal(size=matrix.shape[0])
        got = ras(matrix, ranges, overlap=0).solve(r).copy()
        assert np.allclose(got, block_jacobi(matrix, ranges).solve(r), atol=1e-10)

    def test_overlap_reduces_iterations(self, fem_system):
        matrix, rhs, ranges = fem_system
        it0, it1, it2 = (
            gmres(matrix, rhs, preconditioner=ras(matrix, ranges, k), tol=1e-8).iterations
            for k in (0, 1, 2)
        )
        assert it1 < it0
        assert it2 <= it1

    def test_subdomains_grow_with_overlap(self, fem_system):
        matrix, _, ranges = fem_system
        s0 = [len(s) for s in ras(matrix, ranges, 0).subdomains]
        s2 = [len(s) for s in ras(matrix, ranges, 2).subdomains]
        assert all(b >= a for a, b in zip(s0, s2))
        assert sum(s2) > sum(s0)

    def test_single_block_is_direct(self, fem_system):
        matrix, rhs, _ = fem_system
        pre = ras(matrix, [(0, matrix.shape[0])], overlap=0)
        result = gmres(matrix, rhs, preconditioner=pre, tol=1e-10)
        assert result.iterations <= 2

    def test_ilu_subdomains_converge(self, fem_system):
        matrix, rhs, ranges = fem_system
        pre = ras(matrix, ranges, overlap=1, factorization="ilu")
        result = gmres(matrix, rhs, preconditioner=pre, tol=1e-8)
        assert result.converged

    def test_validation(self, fem_system):
        matrix, _, ranges = fem_system
        with pytest.raises(ValidationError):
            ras(matrix, ranges, overlap=-1)
        with pytest.raises(ValidationError):
            ras(matrix, ranges, factorization="qr")
        with pytest.raises(ValidationError):
            ras(matrix, [(0, 10)], overlap=0)


class TestFrozenSerialRAS:
    @pytest.mark.parametrize("factorization", ["ilu", "lu"])
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    @pytest.mark.parametrize("overlap", [0, 1, 2])
    def test_apply_is_bit_identical(self, fem_system, overlap, n_ranks, factorization):
        matrix, _, _ = fem_system
        ranges = contiguous_ranges(matrix.shape[0], n_ranks)
        r = np.random.default_rng(overlap + 3 * n_ranks).normal(size=matrix.shape[0])
        got = ras(matrix, ranges, overlap, factorization).solve(r)
        expected = _frozen_ras_apply(matrix, ranges, overlap, factorization, r)
        assert np.array_equal(got, expected)
