"""Tests for the active surface: forces, membrane, evolution, correspondence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging.volume import ImageVolume
from repro.mesh.surface import TriangleSurface
from repro.surface.correspondence import snap_surface, surface_correspondence
from repro.surface.evolve import evolve_surface
from repro.surface.forces import DistanceForceField, GradientForceField
from repro.surface.membrane import ElasticMembrane
from repro.util import ShapeError, ValidationError


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
        snapped = snap_surface(surf, mask, vol, cap_mm=15.0, iterations=60, smoothing=0.2)
        corr = surface_correspondence(surf, mask, mask, vol, cap_mm=15.0, iterations=60, smoothing=0.2)
        assert np.array_equal(snapped.positions, corr.snapped.positions)
        assert snapped.iterations == corr.snapped.iterations
