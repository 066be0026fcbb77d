"""Tests for surface extraction, mesh quality, and partitioners."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.partition import (
    partition_block,
    partition_coordinate_bisection,
    partition_statistics,
    partition_work_weighted,
)
from repro.mesh.quality import aspect_ratios, edge_lengths, quality_report
from repro.mesh.surface import TriangleSurface, extract_boundary_surface
from repro.util import MeshError, ValidationError

PARTITIONERS = [
    partition_block,
    partition_work_weighted,
    partition_coordinate_bisection,
]


class TestSurfaceExtraction:
    def test_surface_is_closed(self, brain_mesh):
        """Every surface edge is shared by an even number of triangles.

        Voxel-derived boundaries can touch themselves along non-manifold
        edges (4 incident triangles); odd counts would mean a hole.
        """
        surf = extract_boundary_surface(brain_mesh)
        edges = {}
        for tri in surf.triangles:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                key = tuple(sorted((int(tri[a]), int(tri[b]))))
                edges[key] = edges.get(key, 0) + 1
        counts = np.array(list(edges.values()))
        assert np.all(counts % 2 == 0)
        assert np.mean(counts == 2) > 0.9

    def test_normals_point_outward(self, brain_mesh):
        """Divergence theorem: the signed volume enclosed by the oriented
        surface must equal the mesh volume (negative if normals flipped)."""
        surf = extract_boundary_surface(brain_mesh)
        p = surf.vertices[surf.triangles]
        signed = np.einsum("ij,ij->i", np.cross(p[:, 0], p[:, 1]), p[:, 2]).sum() / 6.0
        assert signed == pytest.approx(brain_mesh.total_volume(), rel=1e-9)

    def test_mesh_nodes_mapping(self, brain_mesh):
        surf = extract_boundary_surface(brain_mesh)
        assert surf.mesh_nodes is not None
        assert np.allclose(brain_mesh.nodes[surf.mesh_nodes], surf.vertices)

    def test_vertex_normals_unit(self, brain_mesh):
        surf = extract_boundary_surface(brain_mesh)
        norms = np.linalg.norm(surf.vertex_normals(), axis=1)
        assert np.allclose(norms, 1.0)

    def test_area_positive(self, brain_mesh):
        surf = extract_boundary_surface(brain_mesh)
        assert surf.area() > 0

    def test_vertex_adjacency_symmetric(self, brain_mesh):
        surf = extract_boundary_surface(brain_mesh)
        adj = surf.vertex_adjacency()
        for a in range(0, surf.n_vertices, 37):
            for b in adj[a]:
                assert a in adj[b]

    def test_vertex_adjacency_equals_frozen_set_based_lists(self, brain_mesh):
        """The cached CSR adjacency against the per-vertex Python build it replaced."""
        surf = extract_boundary_surface(brain_mesh)
        edges = set()
        for a_col, b_col in ((0, 1), (1, 2), (2, 0)):
            a = surf.triangles[:, a_col]
            b = surf.triangles[:, b_col]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            edges.update(zip(lo.tolist(), hi.tolist()))
        adj: list[list[int]] = [[] for _ in range(surf.n_vertices)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        want = [np.array(sorted(x), dtype=np.intp) for x in adj]

        got = surf.vertex_adjacency()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        flat, offsets = surf.adjacency_csr()
        assert np.array_equal(flat, np.concatenate(want))
        assert np.array_equal(np.diff(offsets), [len(w) for w in want])
        assert surf.adjacency_csr()[0] is flat  # built once

    def test_adjacency_of_isolated_and_single_triangle_vertices(self):
        surf = TriangleSurface(np.zeros((5, 3)), np.array([[3, 1, 0]]))
        got = surf.vertex_adjacency()
        assert [a.tolist() for a in got] == [[1, 3], [0, 3], [], [0, 1], []]

    def test_empty_materials_raise(self, brain_mesh):
        with pytest.raises(MeshError):
            extract_boundary_surface(brain_mesh, materials=(123,))

    def test_triangle_surface_validation(self):
        with pytest.raises(MeshError):
            TriangleSurface(np.zeros((2, 3)), np.array([[0, 1, 5]]))


class TestQuality:
    def test_regular_grid_aspect_bounded(self, brain_mesh):
        ratios = aspect_ratios(brain_mesh)
        assert ratios.max() < 3.0  # Kuhn tets of a uniform grid

    def test_edge_lengths_shape(self, brain_mesh):
        assert edge_lengths(brain_mesh).shape == (brain_mesh.n_elements, 6)

    def test_quality_report_keys(self, brain_mesh):
        report = quality_report(brain_mesh)
        assert report["n_nodes"] == brain_mesh.n_nodes
        assert report["total_volume_mm3"] > 0
        assert report["worst_aspect"] >= report["mean_aspect"] * 0.99


class TestPartitioners:
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("n_parts", [1, 3, 7])
    def test_partition_invariants(self, brain_mesh, partitioner, n_parts):
        part = partitioner(brain_mesh, n_parts)
        assert part.shape == (brain_mesh.n_nodes,)
        assert part.min() >= 0 and part.max() == n_parts - 1
        counts = np.bincount(part, minlength=n_parts)
        assert np.all(counts > 0)

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_too_many_parts_rejected(self, brain_mesh, partitioner):
        with pytest.raises(ValidationError):
            partitioner(brain_mesh, brain_mesh.n_nodes + 1)

    def test_block_partition_near_equal_counts(self, brain_mesh):
        part = partition_block(brain_mesh, 5)
        counts = np.bincount(part)
        assert counts.max() - counts.min() <= 1

    def test_work_weighted_beats_block_on_work(self, brain_mesh):
        """The paper's proposed fix: work balance improves vs block."""
        stats_block = partition_statistics(brain_mesh, partition_block(brain_mesh, 8))
        stats_work = partition_statistics(brain_mesh, partition_work_weighted(brain_mesh, 8))
        assert stats_work["work_balance"] <= stats_block["work_balance"] + 1e-9

    def test_bisection_lower_cut_than_block(self, brain_mesh):
        stats_block = partition_statistics(brain_mesh, partition_block(brain_mesh, 8))
        stats_cb = partition_statistics(
            brain_mesh, partition_coordinate_bisection(brain_mesh, 8)
        )
        assert stats_cb["edge_cut_fraction"] <= stats_block["edge_cut_fraction"] * 1.5

    def test_work_weighted_rejects_negative_weights(self, brain_mesh):
        with pytest.raises(ValidationError):
            partition_work_weighted(brain_mesh, 2, weights=-np.ones(brain_mesh.n_nodes))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 12))
    def test_property_block_partition_sorted(self, n_parts):
        """Block partition assigns nondecreasing ranks over node order."""
        from tests.conftest import BRAIN_LABELS
        from repro.imaging.phantom import make_neurosurgery_case
        from repro.mesh.generator import mesh_labeled_volume

        case = make_neurosurgery_case(shape=(24, 24, 18), seed=2)
        mesh = mesh_labeled_volume(case.preop_labels, 12.0, BRAIN_LABELS).mesh
        if n_parts > mesh.n_nodes:
            return
        part = partition_block(mesh, n_parts)
        assert np.all(np.diff(part) >= 0)
