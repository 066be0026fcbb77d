"""Tests for the active surface: forces, membrane, evolution, correspondence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging.phantom import make_neurosurgery_case
from repro.imaging.volume import ImageVolume
from repro.mesh.generator import mesh_labeled_volume
from repro.mesh.surface import TriangleSurface, extract_boundary_surface
from repro.surface.correspondence import snap_surface, surface_correspondence
from repro.surface.evolve import evolve_surface
from repro.surface.forces import DistanceForceField, GradientForceField
from repro.surface.membrane import ElasticMembrane
from repro.util import ShapeError, ValidationError
from tests.conftest import BRAIN_LABELS


def octahedron(radius=1.0, center=(0.0, 0.0, 0.0)):
    c = np.asarray(center)
    v = c + radius * np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float
    )
    tris = np.array(
        [[0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4], [2, 0, 5], [1, 2, 5], [3, 1, 5], [0, 3, 5]]
    )
    return TriangleSurface(v, tris)


def ball_volume(shape=(24, 24, 24), spacing=2.0, radius=14.0):
    vol = ImageVolume.zeros(shape, (spacing,) * 3)
    centers = vol.voxel_centers()
    mid = np.asarray(vol.physical_extent) / 2.0 + np.asarray(vol.origin) - spacing / 2.0
    mask = np.sum((centers - mid) ** 2, axis=-1) <= radius**2
    return vol, mask, mid


class TestDistanceForce:
    def test_zero_on_boundary_inward_outside(self):
        vol, mask, mid = ball_volume()
        field = DistanceForceField.from_mask(mask, vol, cap_mm=12.0)
        outside = mid + np.array([[20.0, 0.0, 0.0]])
        force = field(outside)
        assert force[0, 0] < 0  # points back toward the ball
        near = mid + np.array([[14.0, 0.0, 0.0]])
        assert np.linalg.norm(field(near)) < np.linalg.norm(force)

    def test_force_outward_from_inside(self):
        vol, mask, mid = ball_volume()
        field = DistanceForceField.from_mask(mask, vol, cap_mm=12.0)
        inside = mid + np.array([[6.0, 0.0, 0.0]])
        assert field(inside)[0, 0] > 0

    def test_residual_is_distance(self):
        vol, mask, mid = ball_volume()
        field = DistanceForceField.from_mask(mask, vol, cap_mm=12.0)
        res = field.residual(mid + np.array([[18.0, 0.0, 0.0]]))
        assert res[0] == pytest.approx(4.0, abs=1.5)


class TestGradientVolumes:
    def test_each_volume_is_a_component_of_image_gradient(self):
        """``np.gradient``'s per-axis arrays, the same bits as the stacked
        ``image_gradient`` copied out one component at a time."""
        from repro.imaging.filters import image_gradient
        from repro.surface.forces import _gradient_volumes

        potential = ImageVolume(
            np.random.default_rng(3).normal(size=(7, 6, 5)), (1.5, 0.75, 2.25), (1.0, -2.0, 0.5)
        )
        stacked = image_gradient(potential)
        volumes = _gradient_volumes(potential)
        assert len(volumes) == 3
        for axis, volume in enumerate(volumes):
            assert np.array_equal(volume.data, stacked[..., axis])
            assert volume.data.flags.c_contiguous
            assert volume.spacing == potential.spacing and volume.origin == potential.origin


class TestGradientForce:
    def test_pulls_toward_edge(self):
        vol, mask, mid = ball_volume()
        image = vol.copy(np.where(mask, 100.0, 10.0))
        field = GradientForceField.from_image(image, smoothing_mm=3.0)
        outside = mid + np.array([[19.0, 0.0, 0.0]])
        assert field(outside)[0, 0] < 0  # attracted toward the bright edge

    def test_gray_prior_gates_response(self):
        vol, mask, mid = ball_volume()
        image = vol.copy(np.where(mask, 100.0, 10.0))
        matched = GradientForceField.from_image(image, expected_gray=55.0, gray_tolerance=20.0)
        mismatched = GradientForceField.from_image(image, expected_gray=400.0, gray_tolerance=20.0)
        probe = mid + np.array([[16.0, 0.0, 0.0]])
        assert np.linalg.norm(matched(probe)) > np.linalg.norm(mismatched(probe))


class TestMembrane:
    def test_laplacian_zero_for_flat_displacement(self):
        surf = octahedron()
        membrane = ElasticMembrane(surf)
        membrane.positions = surf.vertices + np.array([1.0, 2.0, 3.0])
        lap = membrane.laplacian(membrane.displacements())
        assert np.allclose(lap, 0.0)

    def test_laplacian_matches_scatter_add_reference(self, rng):
        """Segment sum == the np.add.at formulation it replaced, bit for bit."""
        vertices = np.vstack([octahedron().vertices, [[9.0, 9.0, 9.0]]])  # last: isolated
        surf = TriangleSurface(vertices, octahedron().triangles)
        membrane = ElasticMembrane(surf)
        field = rng.normal(scale=50.0, size=(surf.n_vertices, 3))
        neighbour_sum = np.zeros_like(field)
        np.add.at(neighbour_sum, membrane._segment_ids, field[membrane._flat_adjacency])
        reference = neighbour_sum / membrane._degrees[:, None] - field
        assert np.array_equal(membrane.laplacian(field), reference)
        assert np.array_equal(membrane.laplacian(field)[-1], -field[-1])

    def test_step_moves_toward_force(self):
        surf = octahedron()
        membrane = ElasticMembrane(surf)
        force = np.tile([0.0, 0.0, 1.0], (surf.n_vertices, 1))
        move = membrane.step(force, step_size=0.5, smoothing=0.0)
        assert move == pytest.approx(0.5)
        assert np.allclose(membrane.displacements()[:, 2], 0.5)

    def test_displacement_smoothing_does_not_shrink(self):
        """Pure internal force leaves an undisplaced membrane in place."""
        surf = octahedron()
        membrane = ElasticMembrane(surf)
        for _ in range(50):
            membrane.step(np.zeros((surf.n_vertices, 3)), 0.5, 1.0)
        assert np.allclose(membrane.positions, surf.vertices)

    def test_reset(self):
        surf = octahedron()
        membrane = ElasticMembrane(surf)
        membrane.step(np.ones((surf.n_vertices, 3)), 1.0, 0.0)
        membrane.reset()
        assert np.allclose(membrane.positions, surf.vertices)

    def test_shape_validation(self):
        surf = octahedron()
        membrane = ElasticMembrane(surf)
        with pytest.raises(ShapeError):
            membrane.step(np.zeros((2, 3)), 1.0, 0.0)
        with pytest.raises(ShapeError):
            ElasticMembrane(surf, initial_positions=np.zeros((2, 3)))


class TestEvolveSurface:
    def test_sphere_shrinks_onto_smaller_ball(self):
        vol, mask, mid = ball_volume(radius=10.0)
        field = DistanceForceField.from_mask(mask, vol, cap_mm=15.0)
        surf = octahedron(radius=16.0, center=mid)
        result = evolve_surface(surf, field, iterations=400, smoothing=0.1)
        final_r = np.linalg.norm(result.positions - mid, axis=1)
        assert np.all(np.abs(final_r - 10.0) < 2.5)
        assert result.mean_residual_mm < 1.0

    def test_convergence_flag(self):
        vol, mask, mid = ball_volume(radius=12.0)
        field = DistanceForceField.from_mask(mask, vol, cap_mm=15.0)
        surf = octahedron(radius=12.5, center=mid)
        result = evolve_surface(surf, field, iterations=500, tolerance_mm=1e-3)
        assert result.converged
        assert result.iterations < 500

    def test_force_clamp_limits_step(self):
        vol, mask, mid = ball_volume(radius=10.0)
        field = DistanceForceField.from_mask(mask, vol, cap_mm=15.0)
        surf = octahedron(radius=20.0, center=mid)
        result = evolve_surface(surf, field, iterations=1, step_size=1.0, max_force_mm=0.5)
        assert np.linalg.norm(result.displacements, axis=1).max() <= 0.5 + 1e-9

    def test_validates_arguments(self):
        surf = octahedron()
        with pytest.raises(ValidationError):
            evolve_surface(surf, lambda p: np.zeros_like(p), iterations=0)
        with pytest.raises(ValidationError):
            evolve_surface(surf, lambda p: np.zeros_like(p), step_size=0.0)

    def test_callable_without_residual(self):
        surf = octahedron()
        result = evolve_surface(surf, lambda p: np.zeros_like(p), iterations=2)
        assert np.isnan(result.mean_residual_mm)


class TestCorrespondence:
    def test_recovers_translation_of_ball(self):
        """Ball shifted by 4 mm: correspondence displacement ~ the shift."""
        vol, mask1, mid = ball_volume(shape=(28, 28, 28), radius=14.0)
        centers = vol.voxel_centers()
        shift = np.array([4.0, 0.0, 0.0])
        mask2 = np.sum((centers - mid - shift) ** 2, axis=-1) <= 14.0**2
        surf = octahedron(radius=14.0, center=mid)
        corr = surface_correspondence(
            surf, mask1, mask2, vol, cap_mm=15.0, iterations=400, smoothing=0.2
        )
        mean_disp = corr.displacements.mean(axis=0)
        assert mean_disp[0] == pytest.approx(4.0, abs=1.2)
        assert abs(mean_disp[1]) < 1.0 and abs(mean_disp[2]) < 1.0

    def test_identical_masks_give_near_zero(self):
        vol, mask, mid = ball_volume(radius=14.0)
        surf = octahedron(radius=14.0, center=mid)
        corr = surface_correspondence(surf, mask, mask, vol, iterations=200)
        assert np.linalg.norm(corr.displacements, axis=1).max() < 0.3

    @pytest.mark.parametrize("force", ["distance", "gradient"])
    def test_given_snap_skips_phase_one_with_the_same_result(self, force):
        vol, mask1, mid = ball_volume(radius=12.0)
        centers = vol.voxel_centers()
        mask2 = np.sum((centers - mid - np.array([3.0, 0.0, 0.0])) ** 2, axis=-1) <= 12.0**2
        surf = octahedron(radius=13.0, center=mid)
        kwargs = dict(cap_mm=15.0, iterations=60, smoothing=0.2)
        if force == "gradient":
            kwargs.update(
                force="gradient",
                reference_image=vol.copy(np.where(mask1, 100.0, 10.0)),
                target_image=vol.copy(np.where(mask2, 100.0, 10.0)),
            )
        full = surface_correspondence(surf, mask1, mask2, vol, **kwargs)
        reused = surface_correspondence(surf, mask1, mask2, vol, **kwargs, snapped=full.snapped)
        assert reused.snapped is full.snapped
        assert np.array_equal(reused.displacements, full.displacements)
        assert reused.tracked.iterations == full.tracked.iterations

    def test_snap_surface_is_phase_one(self):
        vol, mask, mid = ball_volume(radius=12.0)
        surf = octahedron(radius=13.0, center=mid)
        snapped = snap_surface(surf, mask, vol, cap_mm=15.0, iterations=60)
        corr = surface_correspondence(surf, mask, mask, vol, cap_mm=15.0, iterations=60, smoothing=0.2)
        assert np.array_equal(snapped.positions, corr.snapped.positions)
        assert snapped.iterations == corr.snapped.iterations


def _frozen_evolve(
    surface, force_field, iterations, step_size, smoothing, tolerance_mm,
    initial_positions=None, rest_positions=None, max_force_mm=3.0,
):
    """The membrane evolution as it stood before the snap lost its membrane.

    A frozen copy of ``evolve_surface``'s loop and ``ElasticMembrane``'s
    step (umbrella Laplacian of the displacement, per-axis bincount
    segment sum) — the oracle that holds the track phase and the
    gradient-force snap bit-identical. Do not "fix" it.
    """
    positions = (surface.vertices if initial_positions is None else initial_positions).copy()
    rest = (surface.vertices if rest_positions is None else rest_positions).copy()
    flat_adjacency, offsets = surface.adjacency_csr()
    degrees = np.diff(offsets)
    segment_ids = np.repeat(np.arange(surface.n_vertices), degrees)
    degrees = np.maximum(degrees, 1)
    history = []
    for _ in range(iterations):
        force = np.asarray(force_field(positions), dtype=float)
        magnitude = np.linalg.norm(force, axis=1, keepdims=True)
        over = magnitude > max_force_mm
        if np.any(over):
            scale = np.where(over, max_force_mm / np.maximum(magnitude, 1e-30), 1.0)
            force = force * scale
        values = positions - rest
        neighbours = values[flat_adjacency]
        neighbour_sum = np.stack(
            [np.bincount(segment_ids, neighbours[:, a], surface.n_vertices) for a in range(3)],
            axis=1,
        )
        laplacian = neighbour_sum / degrees[:, None] - values
        move = step_size * (smoothing * laplacian + force)
        positions += move
        history.append(float(np.linalg.norm(move, axis=1).mean()))
        if history[-1] < tolerance_mm:
            break
    return positions, history


@pytest.fixture(
    scope="module",
    params=[((40, 40, 30), 6.0), ((32, 32, 24), 8.0)],
    ids=["40x40x30", "32x32x24"],
)
def brain_boundary(request):
    """A phantom's coarse mesh boundary, its brain mask and the case."""
    shape, cell_mm = request.param
    case = make_neurosurgery_case(shape=shape, shift_mm=5.0, seed=42)
    labels = case.preop_labels
    surface = extract_boundary_surface(mesh_labeled_volume(labels, cell_mm, BRAIN_LABELS).mesh)
    return surface, np.isin(labels.data, BRAIN_LABELS), case


class TestSnapIsAProjection:
    """The distance-force snap puts each vertex on the reference boundary."""

    def test_snap_arrives(self, brain_boundary):
        surface, mask, case = brain_boundary
        snapped = snap_surface(surface, mask, case.preop_labels)
        assert snapped.converged
        assert snapped.iterations <= 15
        assert snapped.mean_residual_mm < 0.02

    def test_nothing_moved_measures_nothing(self, brain_boundary):
        """The octahedron cases start on the boundary; a mesh boundary does not.

        With the membrane in the snap this read p50 0.27 / p95 0.61 /
        max 0.79 mm on the 40x40x30 mask and 0.36 / 0.86 / 1.98 mm on the
        32x32x24 one, after 7 track iterations each.
        """
        surface, mask, case = brain_boundary
        corr = surface_correspondence(surface, mask, mask, case.preop_labels)
        assert corr.tracked.iterations == 1
        assert np.percentile(corr.magnitudes, 95) < 0.05
        # The coarser voxels leave one vertex 0.37 mm from where it settles.
        assert corr.magnitudes.max() < (0.2 if mask.shape == (40, 40, 30) else 0.5)

    def test_snap_has_no_membrane_to_tune(self, brain_boundary):
        surface, mask, case = brain_boundary
        with pytest.raises(TypeError):
            snap_surface(surface, mask, case.preop_labels, smoothing=0.4)
        stiff = surface_correspondence(
            surface, mask, mask, case.preop_labels, iterations=30, smoothing=0.9
        )
        soft = surface_correspondence(
            surface, mask, mask, case.preop_labels, iterations=30, smoothing=0.1
        )
        assert np.array_equal(stiff.snapped.positions, soft.snapped.positions)

    def test_track_is_the_frozen_membrane(self, brain_boundary):
        surface, mask, case = brain_boundary
        labels = case.preop_labels
        target = np.isin(case.intraop_labels.data, BRAIN_LABELS)
        corr = surface_correspondence(surface, mask, target, labels, iterations=40)
        start = corr.snapped.positions
        positions, history = _frozen_evolve(
            surface, DistanceForceField.from_mask(target, labels, 20.0),
            40, 0.35, 0.4, 5e-3, initial_positions=start, rest_positions=start,
        )
        assert len(history) > 1
        assert np.array_equal(corr.tracked.positions, positions)
        assert corr.tracked.history == history

    def test_gradient_force_keeps_its_membrane(self, brain_boundary):
        surface, mask, case = brain_boundary
        kwargs = dict(iterations=20, step_size=0.35, smoothing=0.4, tolerance_mm=5e-3)
        corr = surface_correspondence(
            surface, mask, mask, case.preop_labels, **kwargs, force="gradient",
            reference_image=case.preop_mri, target_image=case.intraop_mri,
            expected_gray=90.0,
        )
        snap_field = GradientForceField.from_image(case.preop_mri, expected_gray=90.0)
        snapped, snap_history = _frozen_evolve(surface, snap_field, **kwargs)
        track_field = GradientForceField.from_image(case.intraop_mri, expected_gray=90.0)
        tracked, _ = _frozen_evolve(
            surface, track_field, **kwargs, initial_positions=snapped, rest_positions=snapped
        )
        assert np.array_equal(corr.snapped.positions, snapped)
        assert corr.snapped.history == snap_history
        assert np.array_equal(corr.tracked.positions, tracked)
