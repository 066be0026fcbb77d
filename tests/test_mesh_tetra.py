"""Tests for the tetrahedral mesh container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mesh import tetra
from repro.mesh.tetra import MAX_FACE_KEY_NODES, TET_FACES, TetrahedralMesh
from repro.util import MeshError, ShapeError


def unit_tet() -> TetrahedralMesh:
    nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    return TetrahedralMesh(nodes, np.array([[0, 1, 2, 3]]), np.array([4]))


def two_tets() -> TetrahedralMesh:
    """Two tets sharing the face (1, 2, 3)."""
    nodes = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float
    )
    elements = np.array([[0, 1, 2, 3], [4, 1, 3, 2]])
    return TetrahedralMesh(nodes, elements, np.array([4, 5]))


class TestBasics:
    def test_volume_of_unit_tet(self):
        assert unit_tet().element_volumes()[0] == pytest.approx(1.0 / 6.0)

    def test_total_volume(self):
        # First tet: 1/6; second spans (1,1,1)-(1,0,0)-(0,0,1)-(0,1,0): 1/3.
        assert two_tets().total_volume() == pytest.approx(0.5, rel=1e-6)

    def test_n_dof(self):
        assert unit_tet().n_dof == 12

    def test_centroids(self):
        c = unit_tet().element_centroids()
        assert np.allclose(c[0], [0.25, 0.25, 0.25])

    def test_node_element_counts(self):
        counts = two_tets().node_element_counts()
        assert counts.tolist() == [1, 2, 2, 2, 1]

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ShapeError):
            TetrahedralMesh(np.zeros((3, 2)), np.zeros((1, 4), dtype=int), np.zeros(1))
        with pytest.raises(ShapeError):
            TetrahedralMesh(np.zeros((3, 3)), np.zeros((1, 3), dtype=int), np.zeros(1))

    def test_validation_rejects_out_of_range_index(self):
        with pytest.raises(MeshError):
            TetrahedralMesh(np.zeros((2, 3)), np.array([[0, 1, 2, 3]]), np.zeros(1))

    def test_validate_rejects_inverted(self):
        nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        mesh = TetrahedralMesh(nodes, np.array([[0, 2, 1, 3]]), np.array([0]))
        with pytest.raises(MeshError):
            mesh.validate()


class TestConnectivity:
    def test_edge_array_unique_sorted(self):
        edges = unit_tet().edge_array()
        assert edges.shape == (6, 2)
        assert np.all(edges[:, 0] < edges[:, 1])

    def test_shared_face_not_boundary(self):
        faces, owners = two_tets().boundary_faces()
        keys = {tuple(sorted(f)) for f in faces}
        assert (1, 2, 3) not in keys
        assert len(faces) == 6  # 8 faces total, 2 shared
        assert len(owners) == 6

    def test_boundary_faces_oriented_outward(self):
        mesh = unit_tet()
        faces, owners = mesh.boundary_faces()
        centroid = mesh.nodes.mean(axis=0)
        for face in faces:
            p = mesh.nodes[face]
            normal = np.cross(p[1] - p[0], p[2] - p[0])
            assert np.dot(normal, p.mean(axis=0) - centroid) > 0

    def test_boundary_faces_material_filter(self):
        faces, _ = two_tets().boundary_faces(materials=(4,))
        assert len(faces) == 4  # all faces of the selected tet

    def test_node_adjacency_symmetric(self):
        # Each undirected edge once, as (lo, hi): both directions of the
        # adjacency are the pairs of nodes that share an element, no other.
        mesh = two_tets()
        adjacent = np.zeros((mesh.n_nodes, mesh.n_nodes), dtype=bool)
        a, b = mesh.edge_array().T
        adjacent[a, b] = True
        assert not np.any(adjacent & adjacent.T)
        adjacent |= adjacent.T
        shared = np.zeros_like(adjacent)
        for element in mesh.elements:
            shared[np.ix_(element, element)] = True
        np.fill_diagonal(shared, False)
        assert np.array_equal(adjacent, shared)


def _frozen_boundary_faces(mesh, materials=None):
    """The three-column ``lexsort`` body ``boundary_faces`` had before the
    one-key sort, kept as its oracle."""
    if materials is None:
        keep = np.arange(mesh.n_elements)
    else:
        keep = np.flatnonzero(np.isin(mesh.materials, materials))
    flat = mesh.elements[keep][:, TET_FACES].reshape(-1, 3)
    owners = np.repeat(keep, 4)
    key = np.sort(flat, axis=1)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    key_sorted = key[order]
    same_next = np.zeros(len(key_sorted), dtype=bool)
    if len(key_sorted) > 1:
        same_next[:-1] = np.all(key_sorted[:-1] == key_sorted[1:], axis=1)
    same_prev = np.zeros(len(key_sorted), dtype=bool)
    same_prev[1:] = same_next[:-1]
    picked = order[~(same_next | same_prev)]
    return flat[picked], owners[picked]


class TestBoundaryFacesOneKeySort:
    """``boundary_faces`` gives the oracle's faces in the oracle's order."""

    @pytest.mark.parametrize("materials", [None, "first", "all but first"])
    def test_bit_identical_on_a_brain_mesh(self, brain_mesh, materials):
        labels = tuple(int(m) for m in np.unique(brain_mesh.materials))
        assert len(labels) > 1
        chosen = {None: None, "first": labels[:1], "all but first": labels[1:]}[materials]
        faces, owners = brain_mesh.boundary_faces(chosen)
        faces0, owners0 = _frozen_boundary_faces(brain_mesh, chosen)
        assert len(faces) > 0
        assert faces.dtype == faces0.dtype and owners.dtype == owners0.dtype
        assert np.array_equal(faces, faces0)
        assert np.array_equal(owners, owners0)

    @pytest.mark.parametrize("materials", [None, (4,), (6,)])
    def test_bit_identical_on_small_meshes(self, materials):
        for mesh in (unit_tet(), two_tets()):
            faces, owners = mesh.boundary_faces(materials)
            faces0, owners0 = _frozen_boundary_faces(mesh, materials)
            assert np.array_equal(faces, faces0) and np.array_equal(owners, owners0)

    def test_the_code_fits_int64_up_to_the_bound(self):
        # The largest code of n nodes is n**3 - 1 (Python ints: exact).
        n = MAX_FACE_KEY_NODES
        assert ((n - 1) * n + (n - 1)) * n + (n - 1) == n**3 - 1 <= np.iinfo(np.int64).max
        assert (n + 1) ** 3 - 1 > np.iinfo(np.int64).max

    def test_past_the_bound_raises(self, monkeypatch):
        monkeypatch.setattr(tetra, "MAX_FACE_KEY_NODES", 4)
        unit_tet().boundary_faces()  # 4 nodes: at the bound
        with pytest.raises(MeshError):
            two_tets().boundary_faces()


class TestEditing:
    def test_compact_drops_unused(self):
        nodes = np.vstack([unit_tet().nodes, [[9.0, 9.0, 9.0]]])
        mesh = TetrahedralMesh(nodes, np.array([[0, 1, 2, 3]]), np.array([1]))
        compacted, mapping = mesh.compact()
        assert compacted.n_nodes == 4
        assert mapping[4] == -1

    def test_compact_preserves_geometry(self):
        mesh = two_tets()
        compacted, _ = mesh.compact()
        assert compacted.total_volume() == pytest.approx(mesh.total_volume())

    def test_select_materials(self):
        sub = two_tets().select_materials((5,))
        assert sub.n_elements == 1
        assert sub.n_nodes == 4

    def test_with_materials(self):
        mesh = unit_tet().with_materials(np.array([7]))
        assert mesh.materials[0] == 7
