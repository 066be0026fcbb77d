"""Tests for the labeled-volume mesher and its point location."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.phantom import Tissue
from repro.imaging.resample import trilinear_sample
from repro.imaging.volume import ImageVolume
from repro.mesh import generator
from repro.mesh.editing import _largest_face_connected
from repro.mesh.generator import (
    _TET_OFFSETS,
    PERMUTATIONS,
    GridTetraMesher,
    _face_neighbours,
    _largest_component,
    mesh_labeled_volume,
    mesh_with_target_nodes,
)
from repro.mesh.tetra import TET_FACES, TetrahedralMesh
from repro.util import MeshError, ValidationError
from repro.util.memory import reachable_array_bytes
from tests.conftest import BRAIN_LABELS


def cube_labels(n=8, spacing=1.0, label=1):
    """A label volume that is entirely one material."""
    return ImageVolume(np.full((n, n, n), label, dtype=np.uint8), (spacing,) * 3)


class TestMeshing:
    def test_full_cube_volume_conserved(self):
        labels = cube_labels(6, spacing=2.0)
        mesher = mesh_labeled_volume(labels, 4.0, (1,))
        assert mesher.mesh.total_volume() == pytest.approx(12.0**3, rel=1e-9)

    def test_six_tets_per_cell(self):
        labels = cube_labels(4)
        mesher = mesh_labeled_volume(labels, 2.0, (1,))
        assert mesher.mesh.n_elements == np.prod(mesher.cells) * 6

    def test_all_positive_volumes(self, brain_mesh):
        assert np.all(brain_mesh.element_volumes() > 0)

    def test_conforming_no_boundary_faces_inside(self):
        """Interior faces must pair up: boundary faces = outer surface only."""
        labels = cube_labels(4)
        mesher = mesh_labeled_volume(labels, 2.0, (1,))
        faces, _ = mesher.mesh.boundary_faces()
        cx, cy, cz = mesher.cells
        expected = 4 * (cx * cy + cy * cz + cx * cz)  # 2 tris/face/side
        assert len(faces) == expected

    def test_material_labels_from_volume(self, small_case, brain_mesher):
        mesh = brain_mesher.mesh
        assert set(np.unique(mesh.materials)).issubset(set(BRAIN_LABELS))

    def test_raises_when_no_material(self):
        labels = cube_labels(4, label=0)
        with pytest.raises(MeshError):
            mesh_labeled_volume(labels, 2.0, (1,))

    def test_rejects_bad_cell_size(self):
        with pytest.raises(ValidationError):
            mesh_labeled_volume(cube_labels(4), -1.0, (1,))

    def test_rejects_empty_materials(self):
        with pytest.raises(ValidationError):
            mesh_labeled_volume(cube_labels(4), 2.0, ())


class TestPointLocation:
    def test_permutation_table_complete(self):
        assert len(PERMUTATIONS) == 6

    def test_locate_finds_centroids(self, brain_mesher):
        mesh = brain_mesher.mesh
        centroids = mesh.element_centroids()
        elements, bary = brain_mesher.locate(centroids)
        assert np.all(elements == np.arange(mesh.n_elements))
        assert np.allclose(bary.sum(axis=1), 1.0)
        assert np.all(bary >= -1e-12)

    def test_locate_outside_returns_minus_one(self, brain_mesher):
        elements, bary = brain_mesher.locate(np.array([[1e5, 1e5, 1e5]]))
        assert elements[0] == -1
        assert np.all(bary[0] == 0)

    def test_barycentric_reconstructs_position(self, brain_mesher):
        mesh = brain_mesher.mesh
        rng = np.random.default_rng(0)
        pts = mesh.element_centroids()[rng.choice(mesh.n_elements, 50)]
        elements, bary = brain_mesher.locate(pts)
        corners = mesh.nodes[mesh.elements[elements]]
        recon = np.einsum("nk,nkd->nd", bary, corners)
        assert np.allclose(recon, pts, atol=1e-9)

    def test_interpolate_linear_field_exact(self, brain_mesher):
        mesh = brain_mesher.mesh
        coeff = np.array([0.5, -1.0, 2.0])
        nodal = mesh.nodes @ coeff + 7.0
        pts = mesh.element_centroids()[::3]
        vals = brain_mesher.interpolate(nodal, pts)
        assert np.allclose(vals, pts @ coeff + 7.0)

    def test_interpolate_vector_field(self, brain_mesher):
        mesh = brain_mesher.mesh
        nodal = np.stack([mesh.nodes[:, 0], mesh.nodes[:, 1], mesh.nodes[:, 2]], axis=1)
        pts = mesh.element_centroids()[:10]
        vals = brain_mesher.interpolate(nodal, pts)
        assert np.allclose(vals, pts, atol=1e-9)

    def test_interpolate_fill_value_outside(self, brain_mesher):
        vals = brain_mesher.interpolate(
            np.ones(brain_mesher.mesh.n_nodes), np.array([[1e5, 0.0, 0.0]]), fill_value=-3.0
        )
        assert vals[0] == -3.0

    def test_interpolate_validates_length(self, brain_mesher):
        with pytest.raises(ValidationError):
            brain_mesher.interpolate(np.ones(3), np.zeros((1, 3)))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**30))
    def test_property_locate_random_points_in_hull(self, seed):
        labels = cube_labels(6, spacing=2.0)
        mesher = mesh_labeled_volume(labels, 3.0, (1,))
        rng = np.random.default_rng(seed)
        extent = labels.physical_extent
        origin = np.asarray(labels.origin) - np.asarray(labels.spacing) / 2
        pts = origin + rng.random((30, 3)) * extent * 0.999
        elements, bary = mesher.locate(pts)
        assert np.all(elements >= 0)
        corners = mesher.mesh.nodes[mesher.mesh.elements[elements]]
        recon = np.einsum("nk,nkd->nd", bary, corners)
        assert np.allclose(recon, pts, atol=1e-9)


class TestTargetNodes:
    def test_hits_target_within_tolerance(self, small_case):
        target = 2000
        mesher = mesh_with_target_nodes(
            small_case.preop_labels, target, BRAIN_LABELS, tolerance=0.1
        )
        assert abs(mesher.mesh.n_nodes - target) / target < 0.15

    def test_rejects_tiny_target(self, small_case):
        with pytest.raises(ValidationError):
            mesh_with_target_nodes(small_case.preop_labels, 4, BRAIN_LABELS)


class TestDisplacementOnGrid:
    def test_zero_outside_mesh(self, small_case, brain_mesher):
        disp = brain_mesher.displacement_on_grid(
            np.ones((brain_mesher.mesh.n_nodes, 3)), small_case.preop_labels
        )
        corner = disp[0, 0, 0]
        assert np.all(corner == 0)

    def test_constant_field_inside(self, small_case, brain_mesher):
        nodal = np.tile([1.0, 2.0, 3.0], (brain_mesher.mesh.n_nodes, 1))
        disp = brain_mesher.displacement_on_grid(nodal, small_case.preop_labels)
        # Every voxel inside the mesh gets exactly the constant; the rest zero.
        inside = np.linalg.norm(disp, axis=-1) > 0
        assert inside.any()
        assert np.allclose(disp[inside], [1.0, 2.0, 3.0])

    def test_located_grid_is_reused_and_equals_pointwise_interpolation(self, small_case):
        labels = small_case.preop_labels
        mesher = mesh_labeled_volume(labels, 6.0, BRAIN_LABELS)
        rng = np.random.default_rng(3)
        first, second = rng.normal(size=(2, mesher.mesh.n_nodes, 3))
        pts = labels.voxel_centers().reshape(-1, 3)

        assert mesher.located_grid is None
        got = mesher.displacement_on_grid(first, labels)
        assert np.array_equal(got, mesher.interpolate(first, pts).reshape(*labels.shape, 3))
        located = mesher.located_grid
        inside = located[1]
        assert 0 < len(inside) < pts.shape[0] and located[2].shape == (len(inside), 4)

        # Same grid, new field: no second location, same answer as locating again.
        got = mesher.displacement_on_grid(second, labels)
        assert mesher.located_grid is located
        assert np.array_equal(got, mesher.interpolate(second, pts).reshape(*labels.shape, 3))

        # Another grid (shifted origin) is located afresh and replaces the entry.
        moved = ImageVolume(labels.data, labels.spacing, tuple(o + 1.0 for o in labels.origin))
        got = mesher.displacement_on_grid(second, moved)
        assert mesher.located_grid is not located
        assert np.array_equal(
            got,
            mesher.interpolate(second, moved.voxel_centers().reshape(-1, 3)).reshape(
                *labels.shape, 3
            ),
        )

    def test_rejects_field_of_the_wrong_shape(self, small_case, brain_mesher):
        with pytest.raises(ValidationError):
            brain_mesher.displacement_on_grid(
                np.ones((brain_mesher.mesh.n_nodes + 1, 3)), small_case.preop_labels
            )


# -- frozen reference --------------------------------------------------------
# The generator as it stood before it was rewritten to touch only the
# tetrahedra it keeps (PR 19): every candidate of the bounding box is
# materialised — corners, node ids, centroids, a float64 copy of the
# labels — and the size search builds a full mesh per probe. Kept
# verbatim as the oracle; it must not be "fixed" to track the generator.


def _frozen_mesh_labeled_volume(labels, cell_mm, mesh_materials, keep_largest_component=True):
    if not mesh_materials:
        raise ValidationError("mesh_materials must not be empty")
    extent = labels.physical_extent
    cell_req = np.broadcast_to(np.asarray(cell_mm, dtype=float), (3,))
    if np.any(cell_req <= 0):
        raise ValidationError(f"cell_mm must be positive, got {cell_mm}")
    cells = np.maximum(1, np.round(extent / cell_req).astype(int))
    cell_size = extent / cells
    grid_origin = np.asarray(labels.origin) - np.asarray(labels.spacing) / 2.0

    cx, cy, cz = (int(c) for c in cells)
    node_dims = (cx + 1, cy + 1, cz + 1)

    li, lj, lk = np.meshgrid(
        np.arange(cx + 1), np.arange(cy + 1), np.arange(cz + 1), indexing="ij"
    )
    lattice = np.stack([li, lj, lk], axis=-1).reshape(-1, 3)
    node_coords = grid_origin + lattice * cell_size

    ci, cj, ck = np.meshgrid(np.arange(cx), np.arange(cy), np.arange(cz), indexing="ij")
    base = np.stack([ci, cj, ck], axis=-1).reshape(-1, 1, 1, 3)  # (C,1,1,3)
    corners = base + _TET_OFFSETS[None, :, :, :]  # (C, 6, 4, 3)
    node_ids = np.ravel_multi_index(
        (corners[..., 0], corners[..., 1], corners[..., 2]), node_dims
    )  # (C, 6, 4)

    centroids = (
        grid_origin
        + (base.reshape(-1, 1, 3) + _TET_OFFSETS.mean(axis=1)[None, :, :]) * cell_size
    )  # (C, 6, 3)
    label_float = ImageVolume(labels.data.astype(np.float64), labels.spacing, labels.origin)
    mats = trilinear_sample(
        label_float, centroids.reshape(-1, 3), fill_value=-1.0, nearest=True
    ).astype(np.int64)

    keep = np.isin(mats, np.asarray(mesh_materials))
    if not keep.any():
        raise MeshError(
            f"no tetrahedra with materials {mesh_materials}: is the cell size too coarse?"
        )
    elements_all = node_ids.reshape(-1, 4)
    if keep_largest_component:
        kept_idx = np.flatnonzero(keep)
        mask = _largest_face_connected(elements_all[kept_idx])
        keep = np.zeros_like(keep)
        keep[kept_idx[mask]] = True
    kept_elements = elements_all[keep]
    kept_materials = mats[keep]

    raw = TetrahedralMesh(node_coords, kept_elements, kept_materials)
    vols = raw.element_volumes()
    flip = np.asarray(vols < 0)
    if flip.any():
        fixed = kept_elements.copy()
        fixed[flip, 2], fixed[flip, 3] = kept_elements[flip, 3], kept_elements[flip, 2]
        raw = TetrahedralMesh(node_coords, fixed, kept_materials)
    mesh, node_map = raw.compact()
    mesh.validate()

    lookup = np.full((cx, cy, cz, 6), -1, dtype=np.intp)
    flat_idx = np.flatnonzero(keep)
    cell_of = flat_idx // 6
    tet_of = flat_idx % 6
    lookup[
        cell_of // (cy * cz),
        (cell_of // cz) % cy,
        cell_of % cz,
        tet_of,
    ] = np.arange(len(flat_idx))

    return GridTetraMesher(
        mesh=mesh,
        grid_origin=grid_origin,
        cell_size=cell_size,
        cells=(cx, cy, cz),
        element_lookup=lookup,
        flipped=flip,
    )


def _frozen_mesh_with_target_nodes(
    labels, target_nodes, mesh_materials, tolerance=0.03, max_iter=12
):
    if target_nodes < 8:
        raise ValidationError(f"target_nodes too small: {target_nodes}")
    extent = labels.physical_extent
    fill = float(np.isin(labels.data, np.asarray(mesh_materials)).mean())
    fill = max(fill, 1e-3)
    h0 = float((np.prod(extent) * fill / target_nodes) ** (1.0 / 3.0))

    lo, hi = h0 / 4.0, h0 * 4.0
    best = None
    best_err = np.inf
    for _ in range(max_iter):
        h = np.sqrt(lo * hi)
        mesher = _frozen_mesh_labeled_volume(labels, h, mesh_materials)
        n = mesher.mesh.n_nodes
        err = abs(n - target_nodes) / target_nodes
        if err < best_err:
            best, best_err = mesher, err
        if err <= tolerance:
            return mesher
        if n > target_nodes:
            lo = h
        else:
            hi = h
    assert best is not None
    return best


def _assert_same_mesher(got: GridTetraMesher, want: GridTetraMesher) -> None:
    """All seven output arrays equal, dtypes included."""
    assert got.cells == want.cells
    pairs = {
        "nodes": (got.mesh.nodes, want.mesh.nodes),
        "elements": (got.mesh.elements, want.mesh.elements),
        "materials": (got.mesh.materials, want.mesh.materials),
        "element_lookup": (got.element_lookup, want.element_lookup),
        "flipped": (got.flipped, want.flipped),
        "grid_origin": (got.grid_origin, want.grid_origin),
        "cell_size": (got.cell_size, want.cell_size),
    }
    for name, (a, b) in pairs.items():
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name


def _outcome(build, *args, **kwargs):
    """A mesher, or the (type, message) of the exception building it raised."""
    try:
        return build(*args, **kwargs)
    except (MeshError, ValidationError) as exc:
        return type(exc), str(exc)


@st.composite
def _meshing_problems(draw):
    shape = tuple(draw(st.integers(1, 6)) for _ in range(3))
    lengths = st.floats(0.4, 3.0, allow_nan=False)
    spacing = tuple(draw(lengths) for _ in range(3))
    origin = tuple(draw(st.floats(-20.0, 20.0, allow_nan=False)) for _ in range(3))
    cell_mm = draw(st.one_of(lengths, st.tuples(lengths, lengths, lengths)))
    rng = np.random.default_rng(draw(st.integers(0, 2**30)))
    dtype = draw(st.sampled_from([np.uint8, np.int16, np.int64, np.float64]))
    data = rng.integers(0, 4, size=shape).astype(dtype)
    if dtype is np.float64:
        data += rng.random(shape) * 0.9  # read as the integer part
    materials = tuple(draw(st.sets(st.integers(0, 4), min_size=1, max_size=4)))
    keep_largest = draw(st.booleans())
    return ImageVolume(data, spacing, origin), cell_mm, materials, keep_largest


class TestEqualsFrozenDenseGenerator:
    """The generator that touches only kept tetrahedra is the dense one, array for array."""

    @settings(max_examples=60, deadline=None)
    @given(_meshing_problems())
    def test_property_random_label_volumes(self, problem):
        labels, cell_mm, materials, keep_largest = problem
        got = _outcome(mesh_labeled_volume, labels, cell_mm, materials, keep_largest)
        want = _outcome(_frozen_mesh_labeled_volume, labels, cell_mm, materials, keep_largest)
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same_mesher(got, want)

    @pytest.mark.parametrize("cell_mm", [9.0, 4.0, (5.0, 3.5, 7.0)])
    @pytest.mark.parametrize(
        "materials",
        [BRAIN_LABELS, (int(Tissue.VENTRICLE),), tuple(int(t) for t in Tissue)],
    )
    def test_phantom(self, small_case, cell_mm, materials):
        labels = small_case.preop_labels
        _assert_same_mesher(
            mesh_labeled_volume(labels, cell_mm, materials),
            _frozen_mesh_labeled_volume(labels, cell_mm, materials),
        )

    def test_subsampled_volume_with_unequal_spacing_and_origin(self, small_case):
        data = small_case.preop_labels.data[::2, ::1, ::3]
        labels = ImageVolume(data, (2.5, 0.9, 4.1), (-31.0, 12.5, 7.25))
        for keep_largest in (True, False):
            _assert_same_mesher(
                mesh_labeled_volume(labels, 5.0, BRAIN_LABELS, keep_largest),
                _frozen_mesh_labeled_volume(labels, 5.0, BRAIN_LABELS, keep_largest),
            )

    @pytest.mark.parametrize(
        "cell_mm, materials",
        [(-1.0, (1,)), ((2.0, 0.0, 2.0), (1,)), (2.0, ()), (-1.0, ()), (2.0, (3,))],
    )
    def test_same_exception_on_invalid_input(self, cell_mm, materials):
        labels = cube_labels(4)
        want = _outcome(_frozen_mesh_labeled_volume, labels, cell_mm, materials)
        assert isinstance(want, tuple)
        assert _outcome(mesh_labeled_volume, labels, cell_mm, materials) == want

    def test_centroid_labels_equal_nearest_sampling_outside_the_volume_too(self, small_case):
        """The per-axis index tables against one nearest-neighbour sample
        per centroid, on a grid pushed half out of the volume (-1 there)."""
        labels = small_case.preop_labels
        cells = (5, 4, 3)
        cell_size = labels.physical_extent / cells
        grid_origin = np.asarray(labels.origin) + labels.physical_extent * [-0.4, 0.1, 0.3]
        got = generator._centroid_materials(labels, cells, cell_size, grid_origin)
        base = np.stack(np.meshgrid(*map(np.arange, cells), indexing="ij"), axis=-1)
        centroids = grid_origin + (base[..., None, :] + _TET_OFFSETS.mean(axis=1)) * cell_size
        label_float = ImageVolume(labels.data.astype(np.float64), labels.spacing, labels.origin)
        want = trilinear_sample(label_float, centroids, fill_value=-1.0, nearest=True)
        assert got.shape == (*cells, 6)
        assert np.array_equal(got, want.astype(np.int64))
        assert (got == -1).any() and (got > 0).any()

    def test_point_location_and_grid_interpolation_bit_identical(self, small_case):
        labels = small_case.preop_labels
        got = mesh_labeled_volume(labels, 6.0, BRAIN_LABELS)
        want = _frozen_mesh_labeled_volume(labels, 6.0, BRAIN_LABELS)
        rng = np.random.default_rng(5)
        lo = got.grid_origin - 3.0
        pts = lo + rng.random((4000, 3)) * (labels.physical_extent + 6.0)
        for a, b in zip(got.locate(pts), want.locate(pts)):
            assert np.array_equal(a, b)
        nodal = rng.normal(size=(got.mesh.n_nodes, 3))
        assert np.array_equal(
            got.interpolate(nodal, pts, fill_value=-2.0),
            want.interpolate(nodal, pts, fill_value=-2.0),
        )
        assert np.array_equal(
            got.displacement_on_grid(nodal, labels), want.displacement_on_grid(nodal, labels)
        )

    @pytest.mark.parametrize("target", [600, 2500])
    def test_size_search_returns_the_frozen_mesh_and_builds_once(
        self, small_case, target, monkeypatch
    ):
        built = []
        real = generator.mesh_labeled_volume

        def spy(*args, **kwargs):
            built.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(generator, "mesh_labeled_volume", spy)
        got = mesh_with_target_nodes(small_case.preop_labels, target, BRAIN_LABELS)
        want = _frozen_mesh_with_target_nodes(small_case.preop_labels, target, BRAIN_LABELS)
        _assert_same_mesher(got, want)
        assert len(built) == 1

    def test_size_search_raises_what_a_probe_raises(self):
        labels = cube_labels(4, label=0)
        want = _outcome(_frozen_mesh_with_target_nodes, labels, 50, (1,))
        assert want[0] is MeshError
        assert _outcome(mesh_with_target_nodes, labels, 50, (1,)) == want


class TestFreudenthalNeighbours:
    """Face neighbours read from the subdivision, checked against sorted face keys."""

    def test_full_cube_every_interior_face_paired_once(self):
        cells = (3, 4, 5)
        labels = ImageVolume(np.ones(cells, dtype=np.uint8))
        mesher = mesh_labeled_volume(labels, 1.0, (1,))
        assert mesher.cells == cells
        n = mesher.mesh.n_elements
        # Element e is candidate e on a full cube. Undo the orientation
        # swap: the table speaks of Kuhn vertex order.
        assert np.array_equal(mesher.element_lookup.reshape(-1), np.arange(n))
        kuhn = mesher.mesh.elements.copy()
        kuhn[mesher.flipped] = kuhn[mesher.flipped][:, [0, 1, 3, 2]]

        keys = np.sort(kuhn[:, TET_FACES], axis=2)  # (n, 4, 3): face f is opposite vertex f
        owner_of: dict[tuple, list[tuple[int, int]]] = {}
        for e in range(n):
            for f in range(4):
                owner_of.setdefault(tuple(keys[e, f]), []).append((e, f))
        assert max(len(v) for v in owner_of.values()) == 2
        want = np.full((n, 4), -1, dtype=np.intp)
        for owners in owner_of.values():
            if len(owners) == 2:
                (e0, f0), (e1, f1) = owners
                want[e0, f0], want[e1, f1] = e1, e0

        got = _face_neighbours(np.arange(n), cells)
        assert np.array_equal(got, want)
        cx, cy, cz = cells
        assert np.count_nonzero(got < 0) == 4 * (cx * cy + cy * cz + cx * cz)

    @pytest.mark.parametrize(
        "materials, kept, dropped",
        [
            ((int(Tissue.VENTRICLE),), 1578, 805),
            ((int(Tissue.VENTRICLE), int(Tissue.TUMOR)), 2278, 810),
        ],
    )
    def test_component_mask_equals_sort_based_on_fragmenting_selection(
        self, small_case, materials, kept, dropped
    ):
        everything = mesh_labeled_volume(
            small_case.preop_labels, 4.0, materials, keep_largest_component=False
        )
        assert everything.mesh.n_elements == kept
        lookup = everything.element_lookup.reshape(-1)
        candidates = np.flatnonzero(lookup >= 0)
        got = _largest_component(candidates, lookup, everything.cells)
        want = _largest_face_connected(everything.mesh.elements)
        assert np.array_equal(got, want)
        assert np.count_nonzero(~got) == dropped


class TestGeneratorMemory:
    def test_peak_allocation_is_a_small_multiple_of_the_mesh(self, small_case):
        """57.9 k elements kept of 320 k candidates: the dense generator
        peaked at 16x the mesher it returned (90 MB), this one at 4x."""
        labels = small_case.preop_labels
        mesh_labeled_volume(labels, 9.0, BRAIN_LABELS)  # imports, tables
        tracemalloc.start()
        mesher = mesh_labeled_volume(labels, 4.2, BRAIN_LABELS)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert mesher.mesh.n_elements == 57910
        assert peak <= 8 * reachable_array_bytes(mesher)
