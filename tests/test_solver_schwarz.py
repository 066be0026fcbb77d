"""Tests for the restricted additive Schwarz preconditioner."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.solver.gmres import gmres
from repro.solver.schwarz import RestrictedAdditiveSchwarz
from repro.util import ValidationError
from tests.conftest import block_jacobi


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
        ras = RestrictedAdditiveSchwarz(matrix, ranges, overlap=0)
        bj = block_jacobi(matrix, ranges)
        r = np.random.default_rng(0).normal(size=matrix.shape[0])
        assert np.allclose(ras.solve(r), bj.solve(r), atol=1e-10)

    def test_overlap_reduces_iterations(self, fem_system):
        matrix, rhs, ranges = fem_system
        it0 = gmres(
            matrix, rhs, preconditioner=RestrictedAdditiveSchwarz(matrix, ranges, 0), tol=1e-8
        ).iterations
        it1 = gmres(
            matrix, rhs, preconditioner=RestrictedAdditiveSchwarz(matrix, ranges, 1), tol=1e-8
        ).iterations
        it2 = gmres(
            matrix, rhs, preconditioner=RestrictedAdditiveSchwarz(matrix, ranges, 2), tol=1e-8
        ).iterations
        assert it1 < it0
        assert it2 <= it1

    def test_subdomains_grow_with_overlap(self, fem_system):
        matrix, _, ranges = fem_system
        s0 = RestrictedAdditiveSchwarz(matrix, ranges, 0).subdomain_sizes()
        s2 = RestrictedAdditiveSchwarz(matrix, ranges, 2).subdomain_sizes()
        assert all(b >= a for a, b in zip(s0, s2))
        assert sum(s2) > sum(s0)

    def test_single_block_is_direct(self, fem_system):
        matrix, rhs, _ = fem_system
        ras = RestrictedAdditiveSchwarz(matrix, [(0, matrix.shape[0])], overlap=0)
        result = gmres(matrix, rhs, preconditioner=ras, tol=1e-10)
        assert result.iterations <= 2

    def test_ilu_subdomains_converge(self, fem_system):
        matrix, rhs, ranges = fem_system
        ras = RestrictedAdditiveSchwarz(matrix, ranges, overlap=1, factorization="ilu")
        result = gmres(matrix, rhs, preconditioner=ras, tol=1e-8)
        assert result.converged

    def test_validation(self, fem_system):
        matrix, _, ranges = fem_system
        with pytest.raises(ValidationError):
            RestrictedAdditiveSchwarz(matrix, ranges, overlap=-1)
        with pytest.raises(ValidationError):
            RestrictedAdditiveSchwarz(matrix, ranges, factorization="qr")
        with pytest.raises(ValidationError):
            RestrictedAdditiveSchwarz(matrix, [(0, 10)], overlap=0)
