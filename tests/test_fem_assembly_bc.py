"""Tests for global assembly, boundary conditions, and the model facade."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.backend import get_backend
from repro.fem.assembly import (
    assemble_load_vector,
    assemble_stiffness,
    assembly_work_per_node,
    build_csr_pattern,
    element_dof_indices,
    element_stiffness_matrices,
)
from repro.fem.bc import DirichletBC, apply_dirichlet, eliminated_per_node
from repro.fem.context import AssemblyContext
from repro.fem.material import BRAIN_HOMOGENEOUS
from repro.fem.model import BiomechanicalModel
from repro.mesh.surface import extract_boundary_surface
from repro.util import ShapeError, ValidationError


@pytest.fixture(scope="module")
def assembled(brain_mesh_module):
    K = assemble_stiffness(brain_mesh_module, BRAIN_HOMOGENEOUS)
    return brain_mesh_module, K


@pytest.fixture(scope="module")
def brain_mesh_module():
    from repro.imaging.phantom import make_neurosurgery_case
    from repro.mesh.generator import mesh_labeled_volume
    from tests.conftest import BRAIN_LABELS

    case = make_neurosurgery_case(shape=(32, 32, 24), shift_mm=5.0, seed=42)
    return mesh_labeled_volume(case.preop_labels, 10.0, BRAIN_LABELS).mesh


class TestElementStiffness:
    def test_symmetric(self, brain_mesh_module):
        Ke = element_stiffness_matrices(brain_mesh_module, BRAIN_HOMOGENEOUS)
        assert np.allclose(Ke, np.transpose(Ke, (0, 2, 1)))

    def test_positive_semidefinite_with_six_zero_modes(self, brain_mesh_module):
        Ke = element_stiffness_matrices(brain_mesh_module, BRAIN_HOMOGENEOUS)[0]
        eigs = np.linalg.eigvalsh(Ke)
        assert np.sum(np.abs(eigs) < 1e-6 * eigs.max()) == 6  # rigid modes
        assert np.all(eigs > -1e-6 * eigs.max())

    def test_dof_indices_node_major(self, brain_mesh_module):
        dofs = element_dof_indices(brain_mesh_module)
        conn = brain_mesh_module.elements
        assert dofs.shape == (brain_mesh_module.n_elements, 12)
        assert np.all(dofs[:, 0] == 3 * conn[:, 0])
        assert np.all(dofs[:, 5] == 3 * conn[:, 1] + 2)


class TestGlobalAssembly:
    def test_symmetric(self, assembled):
        _, K = assembled
        assert abs(K - K.T).max() < 1e-9 * abs(K).max()

    def test_rigid_body_null_space(self, assembled):
        mesh, K = assembled
        translation = np.tile([1.0, -2.0, 0.5], mesh.n_nodes)
        assert np.abs(K @ translation).max() < 1e-8 * abs(K).max()
        w = np.array([0.1, 0.2, -0.3])
        rotation = np.cross(np.broadcast_to(w, (mesh.n_nodes, 3)), mesh.nodes).ravel()
        assert np.abs(K @ rotation).max() < 1e-6 * abs(K).max() * np.abs(rotation).max()

    def test_positive_semidefinite_sample(self, assembled):
        _, K = assembled
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=K.shape[0])
            assert x @ (K @ x) > -1e-9 * abs(K).max()

    def test_node_permutation_invariance(self, brain_mesh_module):
        """Energy is invariant under node renumbering."""
        from repro.mesh.tetra import TetrahedralMesh

        mesh = brain_mesh_module
        rng = np.random.default_rng(3)
        perm = rng.permutation(mesh.n_nodes)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(mesh.n_nodes)
        permuted = TetrahedralMesh(mesh.nodes[perm], inv[mesh.elements], mesh.materials)
        K1 = assemble_stiffness(mesh, BRAIN_HOMOGENEOUS)
        K2 = assemble_stiffness(permuted, BRAIN_HOMOGENEOUS)
        u = rng.normal(size=(mesh.n_nodes, 3))
        e1 = u.ravel() @ (K1 @ u.ravel())
        u2 = u[perm]
        e2 = u2.ravel() @ (K2 @ u2.ravel())
        assert e1 == pytest.approx(e2, rel=1e-9)

    def test_work_per_node_is_connectivity(self, brain_mesh_module):
        assert np.array_equal(
            assembly_work_per_node(brain_mesh_module),
            brain_mesh_module.node_element_counts(),
        )


class TestLoadVector:
    def test_zero_without_force(self, brain_mesh_module):
        f = assemble_load_vector(brain_mesh_module)
        assert np.all(f == 0)

    def test_uniform_force_total(self, brain_mesh_module):
        f = assemble_load_vector(brain_mesh_module, np.array([0.0, 0.0, -1.0]))
        total_z = f[2::3].sum()
        assert total_z == pytest.approx(-brain_mesh_module.total_volume(), rel=1e-9)

    def test_rejects_bad_shape(self, brain_mesh_module):
        with pytest.raises(ShapeError):
            assemble_load_vector(brain_mesh_module, np.zeros((2, 3)))


class TestDirichlet:
    def test_reduced_size(self, assembled):
        mesh, K = assembled
        bc = DirichletBC(np.array([0, 1, 2]), np.zeros((3, 3)))
        reduced = apply_dirichlet(K, np.zeros(mesh.n_dof), bc)
        assert reduced.n_free == mesh.n_dof - 9
        assert reduced.matrix.shape == (reduced.n_free, reduced.n_free)

    def test_expand_restores_fixed_values(self, assembled):
        mesh, K = assembled
        values = np.arange(6.0).reshape(2, 3)
        bc = DirichletBC(np.array([3, 5]), values)
        reduced = apply_dirichlet(K, np.zeros(mesh.n_dof), bc)
        full = reduced.expand(np.zeros(reduced.n_free))
        assert np.allclose(full.reshape(-1, 3)[3], values[0])
        assert np.allclose(full.reshape(-1, 3)[5], values[1])

    def test_prescribed_solution_is_recovered_exactly(self, assembled):
        """Impose a linear field on the boundary; solving the reduced
        system must reproduce it everywhere (patch test)."""
        mesh, K = assembled
        surf = extract_boundary_surface(mesh)
        A = np.array([[0.001, 0.002, 0.0], [0.0, -0.001, 0.001], [0.002, 0.0, -0.002]])
        field = mesh.nodes @ A.T  # linear displacement field
        bc = DirichletBC(surf.mesh_nodes, field[surf.mesh_nodes])
        reduced = apply_dirichlet(K, np.zeros(mesh.n_dof), bc)
        solution = sparse.linalg.spsolve(reduced.matrix.tocsc(), reduced.rhs)
        full = reduced.expand(solution).reshape(-1, 3)
        assert np.allclose(full, field, atol=1e-8)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValidationError):
            DirichletBC(np.array([1, 1]), np.zeros((2, 3)))

    def test_out_of_range_dof_rejected(self, assembled):
        mesh, K = assembled
        bc = DirichletBC(np.array([mesh.n_nodes + 5]), np.zeros((1, 3)))
        with pytest.raises(ValidationError):
            apply_dirichlet(K, np.zeros(mesh.n_dof), bc)

    def test_eliminated_per_node(self):
        bc = DirichletBC(np.array([2, 4]), np.zeros((2, 3)))
        out = eliminated_per_node(6, bc)
        assert out.tolist() == [0, 0, 3, 0, 3, 0]


class TestBiomechanicalModel:
    def test_requires_nonempty_bc(self, brain_mesh_module):
        model = BiomechanicalModel(brain_mesh_module)
        with pytest.raises(ValidationError):
            model.simulate(DirichletBC(np.array([], dtype=int), np.zeros((0, 3))))

    def test_reports_counts_and_times(self, brain_mesh_module):
        mesh = brain_mesh_module
        surf = extract_boundary_surface(mesh)
        bc = DirichletBC(surf.mesh_nodes, np.zeros((len(surf.mesh_nodes), 3)))
        result = BiomechanicalModel(mesh).simulate(bc)
        assert result.solver.converged and result.solver.iterations == 1
        assert result.n_dof_total == mesh.n_dof
        assert result.n_equations == mesh.n_dof - 3 * len(surf.mesh_nodes)
        assert result.assembly_seconds > 0
        assert result.solve_seconds > 0


# -- frozen reference --------------------------------------------------------
#
# ``build_csr_pattern`` as it stood while it lexsorted the 144 m (row, col)
# DOF pairs. The node-pair version must return the same three arrays, same
# dtypes, so ``coo_accumulate`` adds the same values in the same order.


def _frozen_build_csr_pattern(element_dofs: np.ndarray, n_dof: int):
    rows = np.repeat(element_dofs, 12, axis=1).ravel()
    cols = np.tile(element_dofs, (1, 12)).ravel()
    order = np.lexsort((cols, rows))
    rs, cs = rows[order], cols[order]
    first = np.empty(len(rs), dtype=bool)
    if len(rs):
        first[0] = True
        first[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
    group = np.cumsum(first) - 1
    scatter = np.empty_like(group)
    scatter[order] = group
    indices = cs[first].astype(np.int32)
    counts = np.bincount(rs[first], minlength=n_dof)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    return scatter, indices, indptr


def _frozen_pattern_of(elements: np.ndarray, n_nodes: int):
    el = np.asarray(elements, dtype=np.int64)
    dofs = (3 * el[:, :, None] + np.arange(3)).reshape(len(el), 12)
    return _frozen_build_csr_pattern(dofs, 3 * n_nodes)


def _assert_same_pattern(elements, n_nodes):
    got = build_csr_pattern(elements, n_nodes)
    want = _frozen_pattern_of(elements, n_nodes)
    for name, g, w in zip(("scatter", "indices", "indptr"), got, want):
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name


@st.composite
def _connectivity(draw):
    """Random tetrahedral connectivity over a node range it need not fill."""
    n_nodes = draw(st.integers(4, 40))
    tet = st.lists(
        st.integers(0, n_nodes - 1), min_size=4, max_size=4, unique=True
    )
    return np.array(draw(st.lists(tet, min_size=1, max_size=30)), dtype=np.int64), n_nodes


class TestSymbolicAssemblyByNodePair:
    @given(_connectivity())
    @settings(max_examples=200, deadline=None)
    def test_equals_frozen_lexsort_pattern(self, case):
        _assert_same_pattern(*case)

    @pytest.mark.parametrize(
        "elements, n_nodes",
        [
            ([[0, 1, 2, 3]], 4),  # single element
            ([[3, 0, 2, 1]], 4),  # ... with its nodes out of order
            ([[0, 1, 2, 3], [1, 2, 3, 4]], 5),  # shared face
            ([[0, 1, 2, 3], [4, 2, 5, 3]], 6),  # shared edge
            ([[0, 1, 2, 3], [3, 4, 5, 6]], 7),  # one shared node
            ([[0, 1, 2, 3], [4, 5, 6, 7]], 8),  # disconnected
            ([[2, 9, 5, 7]], 12),  # node ids no element uses, before and after
            ([[0, 1, 2, 3], [0, 1, 2, 3]], 4),  # the same element twice
        ],
    )
    def test_named_topologies(self, elements, n_nodes):
        _assert_same_pattern(np.array(elements), n_nodes)

    def test_node_order_inside_an_element_does_not_change_the_pattern(self, rng):
        elements = np.array([[0, 1, 2, 3], [1, 2, 3, 4], [4, 2, 5, 3]])
        _, indices, indptr = build_csr_pattern(elements, 6)
        shuffled = np.array([rng.permutation(row) for row in elements])
        _assert_same_pattern(shuffled, 6)
        _, indices2, indptr2 = build_csr_pattern(shuffled, 6)
        assert np.array_equal(indices, indices2) and np.array_equal(indptr, indptr2)

    def test_accepts_int32_connectivity(self):
        elements = np.array([[0, 1, 2, 3], [1, 2, 3, 4]], dtype=np.int32)
        _assert_same_pattern(elements, 5)

    def test_phantom_mesh_pattern_and_stiffness_bit_identical(self, brain_mesh_module):
        mesh = brain_mesh_module
        _assert_same_pattern(mesh.elements, mesh.n_nodes)
        scatter, indices, indptr = _frozen_build_csr_pattern(
            mesh.element_dof_indices(), mesh.n_dof
        )
        Ke = element_stiffness_matrices(mesh, BRAIN_HOMOGENEOUS)
        data = get_backend().coo_accumulate(scatter, Ke.reshape(-1), len(indices))
        K_old = sparse.csr_matrix((data, indices, indptr), shape=(mesh.n_dof,) * 2)
        for K_new in (
            assemble_stiffness(mesh, BRAIN_HOMOGENEOUS),
            AssemblyContext(mesh, BRAIN_HOMOGENEOUS).matrix(),
        ):
            assert (K_new != K_old).nnz == 0
            assert np.array_equal(K_new.data, K_old.data)
            assert np.array_equal(K_new.indices, K_old.indices)
            assert np.array_equal(K_new.indptr, K_old.indptr)
