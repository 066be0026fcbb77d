"""Unit tests for ImageVolume geometry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.volume import ImageVolume
from repro.util import ShapeError


@pytest.fixture()
def vol():
    return ImageVolume(np.arange(24.0).reshape(2, 3, 4), (2.0, 1.0, 0.5), (10.0, -5.0, 0.0))


class TestGeometry:
    def test_index_world_roundtrip(self, vol):
        ijk = np.array([[0, 0, 0], [1, 2, 3], [0.5, 1.5, 2.5]])
        assert np.allclose(vol.world_to_index(vol.index_to_world(ijk)), ijk)

    def test_origin_is_first_voxel_center(self, vol):
        assert np.allclose(vol.index_to_world(np.zeros(3)), [10.0, -5.0, 0.0])

    def test_physical_extent(self, vol):
        assert np.allclose(vol.physical_extent, [4.0, 3.0, 2.0])

    def test_voxel_volume(self, vol):
        assert vol.voxel_volume == pytest.approx(1.0)

    def test_voxel_centers_shape_and_corner(self, vol):
        centers = vol.voxel_centers()
        assert centers.shape == (2, 3, 4, 3)
        assert np.allclose(centers[0, 0, 0], [10.0, -5.0, 0.0])
        assert np.allclose(centers[1, 2, 3], [12.0, -3.0, 1.5])


def _frozen_voxel_centers(volume):
    """``voxel_centers`` as it stood before it was built from 1-D axes."""
    grids = np.meshgrid(*[np.arange(n, dtype=float) for n in volume.shape], indexing="ij")
    return volume.index_to_world(np.stack(grids, axis=-1))


class TestVoxelCentersFromAxes:
    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
        spacing=st.tuples(*[st.floats(1e-3, 50.0) for _ in range(3)]),
        origin=st.tuples(*[st.floats(-1e3, 1e3) for _ in range(3)]),
    )
    def test_equals_the_meshgrid_body(self, shape, spacing, origin):
        vol = ImageVolume(np.zeros(shape), spacing, origin)
        got = vol.voxel_centers()
        assert got.shape == (*shape, 3) and got.dtype == np.float64
        assert np.array_equal(got, _frozen_voxel_centers(vol))


class TestValidationAndCopy:
    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            ImageVolume(np.zeros((2, 2)))

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ShapeError):
            ImageVolume(np.zeros((2, 2, 2)), spacing=(1.0, 0.0, 1.0))

    def test_copy_is_deep(self, vol):
        copy = vol.copy()
        copy.data[0, 0, 0] = 999
        assert vol.data[0, 0, 0] == 0

    def test_copy_with_replacement_checks_shape(self, vol):
        with pytest.raises(ShapeError):
            vol.copy(np.zeros((1, 1, 1)))

    def test_same_grid_as(self, vol):
        assert vol.same_grid_as(vol.copy())
        other = ImageVolume(np.zeros(vol.shape), vol.spacing, (0.0, 0.0, 0.0))
        assert not vol.same_grid_as(other)

    def test_zeros_constructor(self):
        z = ImageVolume.zeros((2, 3, 4), dtype=np.float32)
        assert z.data.dtype == np.float32
        assert z.shape == (2, 3, 4)

    def test_astype(self, vol):
        assert vol.astype(np.int32).data.dtype == np.int32
