"""Tests for trilinear sampling, resampling and warping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.resample import (
    INVERSE_STEP_TOL_MM,
    PLAIN_STEP_TOL_MM,
    _dilate_one_voxel,
    invert_displacement_field,
    invert_with_counts,
    resample_volume,
    trilinear_gather,
    trilinear_sample,
    trilinear_sample_many,
    warp_volume,
)
from repro.imaging.volume import ImageVolume
from repro.obs.trace import Tracer, set_tracer
from repro.util import ShapeError


def linear_volume(shape=(8, 9, 7), spacing=(1.0, 1.0, 1.0), coeffs=(1.0, 2.0, -0.5), const=3.0):
    vol = ImageVolume.zeros(shape, spacing)
    centers = vol.voxel_centers()
    data = centers @ np.asarray(coeffs) + const
    return vol.copy(data), np.asarray(coeffs), const


class TestTrilinearGather:
    def test_trilinear_gather_matches_eight_corner_sum(self, rng):
        shape = (4, 5, 6)
        channels = [rng.normal(size=shape) for _ in range(3)]
        n = 50
        ijk = np.stack([rng.integers(0, s - 1, n) for s in shape], axis=1)
        f = rng.random((n, 3))
        expected = np.zeros((3, n))
        for a, b, c in np.ndindex(2, 2, 2):
            weight = (
                np.where(a, f[:, 0], 1 - f[:, 0])
                * np.where(b, f[:, 1], 1 - f[:, 1])
                * np.where(c, f[:, 2], 1 - f[:, 2])
            )
            for ch, data in enumerate(channels):
                expected[ch] += weight * data[ijk[:, 0] + a, ijk[:, 1] + b, ijk[:, 2] + c]
        base = np.ravel_multi_index(tuple(ijk.T), shape)
        args = (base, (shape[1] * shape[2], shape[2], 1), f.T, 1 - f.T)
        got = trilinear_gather([d.ravel() for d in channels], *args)
        assert got.shape == (3, n)
        assert np.allclose(got, expected, atol=1e-12)
        alone = trilinear_gather([channels[1].ravel()], *args)
        assert np.array_equal(alone[0], got[1])


class TestTrilinearSample:
    def test_exact_at_voxel_centers(self):
        vol, _, _ = linear_volume()
        pts = vol.voxel_centers().reshape(-1, 3)[::5]
        vals = trilinear_sample(vol, pts)
        assert np.allclose(vals, vol.data.ravel()[::5])

    def test_exact_on_linear_field(self):
        vol, c, k = linear_volume()
        rng = np.random.default_rng(0)
        pts = rng.uniform([0.5, 0.5, 0.5], [6.5, 7.5, 5.5], size=(40, 3))
        assert np.allclose(trilinear_sample(vol, pts), pts @ c + k)

    def test_fill_value_outside(self):
        vol, _, _ = linear_volume()
        vals = trilinear_sample(vol, np.array([[-5.0, 0, 0], [100.0, 0, 0]]), fill_value=-7.0)
        assert np.all(vals == -7.0)

    def test_nearest_mode_for_labels(self):
        vol = ImageVolume(np.arange(27).reshape(3, 3, 3).astype(np.int32))
        vals = trilinear_sample(vol, np.array([[1.4, 0.6, 2.2]]), nearest=True)
        assert vals[0] == vol.data[1, 1, 2]

    def test_rejects_bad_trailing_dim(self):
        vol, _, _ = linear_volume()
        with pytest.raises(ShapeError):
            trilinear_sample(vol, np.zeros((4, 2)))


class TestResampleVolume:
    def test_identity_grid(self):
        vol, _, _ = linear_volume()
        out = resample_volume(vol, vol)
        assert np.allclose(out.data, vol.data)

    def test_downsampled_grid_linear_exact(self):
        vol, c, k = linear_volume(shape=(8, 8, 8))
        ref = ImageVolume.zeros((4, 4, 4), spacing=(2.0, 2.0, 2.0), origin=(0.5, 0.5, 0.5))
        out = resample_volume(vol, ref)
        expected = ref.voxel_centers() @ c + k
        assert np.allclose(out.data, expected)


class TestWarpVolume:
    def test_zero_displacement_is_identity(self):
        vol, _, _ = linear_volume()
        out = warp_volume(vol, np.zeros((*vol.shape, 3)))
        assert np.allclose(out.data, vol.data)

    def test_constant_shift_on_linear_field(self):
        vol, c, k = linear_volume(shape=(10, 10, 10))
        disp = np.zeros((*vol.shape, 3))
        disp[..., 0] = 1.0  # sample 1 mm ahead in x
        out = warp_volume(vol, disp, fill_value=np.nan)
        inner = out.data[:8]
        expected = vol.data[:8] + c[0]
        assert np.allclose(inner, expected)

    def test_shape_mismatch_raises(self):
        vol, _, _ = linear_volume()
        with pytest.raises(ShapeError):
            warp_volume(vol, np.zeros((2, 2, 2, 3)))


class TestInvertDisplacement:
    def test_inverts_smooth_field(self):
        shape = (16, 16, 12)
        vol = ImageVolume.zeros(shape, spacing=(2.0, 2.0, 2.0))
        centers = vol.voxel_centers()
        mid = centers.reshape(-1, 3).mean(axis=0)
        r2 = np.sum((centers - mid) ** 2, axis=-1)
        amp = 1.5 * np.exp(-r2 / (2 * 8.0**2))
        forward = amp[..., None] * np.array([1.0, 0.5, -0.25])
        inverse = invert_displacement_field(forward, vol.spacing)
        # Composition should be near zero: v(x) + u(x + v(x)) ~ 0.
        pts = centers + inverse
        from repro.imaging.resample import trilinear_sample as ts

        u_at = np.stack(
            [
                ts(ImageVolume(np.ascontiguousarray(forward[..., a]), vol.spacing), pts)
                for a in range(3)
            ],
            axis=-1,
        )
        residual = np.linalg.norm(inverse + u_at, axis=-1)
        # Boundary voxels sample outside the volume (fill value), so the
        # fixed point is only meaningful in the interior.
        assert residual[2:-2, 2:-2, 2:-2].max() < 1e-6


# -- frozen references -------------------------------------------------------
#
# The body of ``trilinear_sample`` (linear branch) as it stood before the
# fused sampler replaced it, which the library reproduces bit for bit, and
# two generations of ``invert_displacement_field``. The full-grid plain
# iteration (ten sweeps on every voxel, then the damped tail) is the
# accuracy reference of today's per-voxel iteration, which stops each voxel
# when it converges; ``_frozen_invert_per_voxel`` is today's rule on the
# full grid with the frozen sampler, which the library equals bit for bit.
# The end-to-end benchmark's input generator calls the inverter, so these
# bodies no longer pin its inputs: the per-voxel rule moves the phantom's
# inverse by under 1e-6 mm, which changes no truth label of the four
# workloads, and that is checked by comparing ``make_inputs(...).sha`` on
# both trees.


def _frozen_trilinear_sample(volume, points_world, fill_value=0.0):
    pts = np.asarray(points_world, dtype=float)
    out_shape = pts.shape[:-1]
    idx = volume.world_to_index(pts.reshape(-1, 3))
    data = volume.data
    nx, ny, nz = data.shape
    floor = np.floor(idx).astype(np.intp)
    valid = (
        (idx[:, 0] >= 0) & (idx[:, 0] <= nx - 1)
        & (idx[:, 1] >= 0) & (idx[:, 1] <= ny - 1)
        & (idx[:, 2] >= 0) & (idx[:, 2] <= nz - 1)
    )
    i0 = np.clip(floor[:, 0], 0, nx - 2) if nx > 1 else np.zeros(len(floor), dtype=np.intp)
    j0 = np.clip(floor[:, 1], 0, ny - 2) if ny > 1 else np.zeros(len(floor), dtype=np.intp)
    k0 = np.clip(floor[:, 2], 0, nz - 2) if nz > 1 else np.zeros(len(floor), dtype=np.intp)
    fx = np.clip(idx[:, 0] - i0, 0.0, 1.0)
    fy = np.clip(idx[:, 1] - j0, 0.0, 1.0)
    fz = np.clip(idx[:, 2] - k0, 0.0, 1.0)
    i1 = np.minimum(i0 + 1, nx - 1)
    j1 = np.minimum(j0 + 1, ny - 1)
    k1 = np.minimum(k0 + 1, nz - 1)
    d = data.astype(float, copy=False)
    c000 = d[i0, j0, k0]
    c100 = d[i1, j0, k0]
    c010 = d[i0, j1, k0]
    c110 = d[i1, j1, k0]
    c001 = d[i0, j0, k1]
    c101 = d[i1, j0, k1]
    c011 = d[i0, j1, k1]
    c111 = d[i1, j1, k1]
    c00 = c000 * (1 - fx) + c100 * fx
    c10 = c010 * (1 - fx) + c110 * fx
    c01 = c001 * (1 - fx) + c101 * fx
    c11 = c011 * (1 - fx) + c111 * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    result = c0 * (1 - fz) + c1 * fz
    result[~valid] = fill_value
    return result.reshape(out_shape)


def _frozen_invert_displacement_field(displacement_mm, spacing, iterations=10):
    disp = np.asarray(displacement_mm, dtype=float)
    shape = disp.shape[:-1]
    vol_axes = [
        ImageVolume(np.ascontiguousarray(disp[..., a]), spacing) for a in range(3)
    ]
    base = vol_axes[0].voxel_centers()
    v = -disp.copy()
    for _ in range(iterations):
        pts = base + v
        u_at = np.stack(
            [_frozen_trilinear_sample(vol_axes[a], pts, fill_value=0.0) for a in range(3)],
            axis=-1,
        )
        v = -u_at
    return v.reshape(*shape, 3)


def _frozen_invert_with_damped_tail(displacement_mm, spacing, iterations=10):
    """The frozen plain iteration, then the damped continuation, full grid.

    A voxel whose last plain step was longer than 1e-3 mm goes on with
    ``v <- (v - u(x + v)) / 2`` until a step is shorter, twenty at most;
    every other voxel keeps the frozen body's value. Written on the whole
    grid with the frozen per-channel sampler, so it checks the library's
    support-only, fused-sampler continuation bit for bit.
    """
    disp = np.asarray(displacement_mm, dtype=float)
    vol_axes = [
        ImageVolume(np.ascontiguousarray(disp[..., a]), spacing) for a in range(3)
    ]
    base = vol_axes[0].voxel_centers()
    v = _frozen_invert_displacement_field(disp, spacing, iterations)
    previous = _frozen_invert_displacement_field(disp, spacing, iterations - 1)
    moving = np.linalg.norm(v - previous, axis=-1) > 1e-3
    for _ in range(20):
        u_at = np.stack(
            [_frozen_trilinear_sample(vol_axes[a], base + v, fill_value=0.0) for a in range(3)],
            axis=-1,
        )
        damped = 0.5 * (v - u_at)
        step = np.linalg.norm(damped - v, axis=-1)
        v = np.where(moving[..., None], damped, v)
        moving &= step > 1e-3
    return v


def _frozen_invert_per_voxel(displacement_mm, spacing, iterations=10, damped_steps=20):
    """Per-voxel retirement on the full grid with the frozen sampler.

    Every voxel takes plain steps ``v <- -u(x + v)`` until one moves it
    ``PLAIN_STEP_TOL_MM`` or less. After the last of ``iterations`` plain
    steps the tolerance is ``INVERSE_STEP_TOL_MM``: a voxel whose last
    plain step was longer goes on with ``v <- (v - u(x + v)) / 2`` until
    one is shorter, ``damped_steps`` at most. Returns ``(v, moving)``: the
    field and the voxels that never retired.
    """
    disp = np.asarray(displacement_mm, dtype=float)
    vol_axes = [
        ImageVolume(np.ascontiguousarray(disp[..., a]), spacing) for a in range(3)
    ]
    base = vol_axes[0].voxel_centers()
    v = -disp.copy()
    moving = np.ones(disp.shape[:-1], dtype=bool)
    for sweep in range(iterations + damped_steps):
        u_at = np.stack(
            [_frozen_trilinear_sample(vol_axes[a], base + v, fill_value=0.0) for a in range(3)],
            axis=-1,
        )
        stepped = -u_at if sweep < iterations else 0.5 * (v - u_at)
        step = np.linalg.norm(stepped - v, axis=-1)
        v = np.where(moving[..., None], stepped, v)
        moving &= step > (PLAIN_STEP_TOL_MM if sweep < iterations - 1 else INVERSE_STEP_TOL_MM)
    return v, moving


def _sample_points(rng, vol, n):
    """Points inside, outside, exactly on faces/voxel centres, and NaN."""
    lo = vol.index_to_world(np.zeros(3))
    hi = vol.index_to_world(np.asarray(vol.shape, dtype=float) - 1.0)
    span = np.maximum(hi - lo, 1.0)
    pts = rng.uniform(lo - 0.3 * span, hi + 0.3 * span, size=(n, 3))
    centers = vol.voxel_centers().reshape(-1, 3)
    pts[: n // 4] = centers[rng.integers(0, len(centers), n // 4)]
    on_face = pts[n // 4 : n // 2]
    axis = rng.integers(0, 3, len(on_face))
    rows = np.arange(len(on_face))
    on_face[rows, axis] = np.where(rng.random(len(on_face)) < 0.5, lo[axis], hi[axis])
    pts[-1, rng.integers(0, 3)] = np.nan
    return pts


class TestTrilinearSampleMany:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**30),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        n_channels=st.integers(1, 5),
        integer_data=st.booleans(),
    )
    def test_equals_frozen_per_channel_sampling(self, seed, shape, n_channels, integer_data):
        rng = np.random.default_rng(seed)
        spacing = tuple(rng.uniform(0.3, 3.0, 3))
        origin = tuple(rng.uniform(-20.0, 20.0, 3))
        if integer_data:
            datas = [rng.integers(-50, 50, shape).astype(np.int16) for _ in range(n_channels)]
        else:
            datas = [rng.normal(scale=40.0, size=shape) for _ in range(n_channels)]
        volumes = [ImageVolume(d, spacing, origin) for d in datas]
        fills = rng.normal(size=n_channels)
        pts = _sample_points(rng, volumes[0], 64).reshape(8, 8, 3)
        with np.errstate(invalid="ignore"):  # the NaN point's float -> int cast
            fused = trilinear_sample_many(volumes, pts, fills)
            single = trilinear_sample_many(volumes, pts, 1.5)
            expected = [_frozen_trilinear_sample(v, pts, f) for v, f in zip(volumes, fills)]
            one = trilinear_sample(volumes[0], pts, fill_value=fills[0])
        assert fused.shape == (n_channels, 8, 8)
        assert fused.dtype == np.float64
        for c in range(n_channels):
            assert np.array_equal(fused[c], expected[c])
        assert np.array_equal(one, expected[0])
        assert np.all(single[:, np.isnan(pts).any(axis=-1)] == 1.5)  # scalar fill broadcasts

    def test_rejects_mixed_grids_and_bad_points(self):
        a = ImageVolume(np.zeros((3, 3, 3)), (1.0, 1.0, 1.0))
        with pytest.raises(ShapeError):
            trilinear_sample_many([a, ImageVolume(np.zeros((3, 3, 4)))], np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            trilinear_sample_many([a, ImageVolume(np.zeros((3, 3, 3)), (1.0, 2.0, 1.0))], np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            trilinear_sample_many([a, ImageVolume(np.zeros((3, 3, 3)), origin=(0.0, 0.0, 0.5))], np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            trilinear_sample_many([a], np.zeros((4, 2)))

    def test_empty_point_set(self):
        a = ImageVolume(np.ones((3, 3, 3)))
        assert trilinear_sample_many([a, a], np.zeros((0, 3))).shape == (2, 0)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_points_are_not_modified(self, n):
        """World -> index runs in place on a row-layout copy; a single point's
        transpose is already contiguous, so the copy must be forced."""
        vol = ImageVolume(np.arange(27.0).reshape(3, 3, 3), (2.0, 1.0, 0.5), (4.0, -1.0, 3.0))
        pts = np.tile([5.0, -0.5, 3.25], (n, 1))
        kept = pts.copy()
        got = trilinear_sample_many([vol], pts)
        assert np.array_equal(pts, kept)
        assert np.array_equal(got[0], _frozen_trilinear_sample(vol, kept))


class TestDilateOneVoxel:
    """The inverter's support margin: three one-voxel passes along the axes
    equal scipy's dilation by the full 3×3×3 cube, the cube being separable."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
        st.floats(0.0, 0.3),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_cube_dilation(self, shape, density, seed):
        from scipy import ndimage

        mask = np.random.default_rng(seed).random(shape) < density
        kept = mask.copy()
        want = ndimage.binary_dilation(mask, structure=np.ones((3, 3, 3), dtype=bool))
        assert np.array_equal(_dilate_one_voxel(mask), want)
        assert np.array_equal(mask, kept)


def _residual(forward, inverse, spacing):
    """``|v + u(x + v)|`` at every voxel."""
    vol = ImageVolume.zeros(forward.shape[:-1], spacing)
    axes = [ImageVolume(np.ascontiguousarray(forward[..., a]), spacing) for a in range(3)]
    u_at = trilinear_sample_many(axes, vol.voxel_centers() + inverse)
    return np.linalg.norm(inverse + np.moveaxis(u_at, 0, -1), axis=-1)


class TestInvertDisplacementSupport:
    """Support-only, per-voxel iteration == the same rule on the full grid.

    ``_frozen_invert_per_voxel`` iterates every voxel with the frozen
    per-channel sampler; the library iterates only the dilated support,
    with the fused sampler, on a shrinking index set. Every field here
    must come out bit for bit the same.
    """

    @staticmethod
    def _bump(shape, spacing, center_frac, radius_mm, amplitude, compact):
        vol = ImageVolume.zeros(shape, spacing)
        centers = vol.voxel_centers()
        mid = centers.reshape(-1, 3).max(axis=0) * np.asarray(center_frac)
        r = np.linalg.norm(centers - mid, axis=-1)
        if compact:
            amp = np.where(r < radius_mm, np.cos(0.5 * np.pi * r / radius_mm) ** 2, 0.0)
        else:
            amp = np.exp(-0.5 * (r / radius_mm) ** 2)
        return amp[..., None] * np.asarray(amplitude)

    @pytest.mark.parametrize(
        "spacing", [(1.0, 1.0, 1.0), (0.1, 0.7, 1.3), (2.875, 2.875, 3.1)]
    )
    def test_compact_support_matches_full_grid(self, spacing):
        shape = (14, 12, 10)
        forward = self._bump(
            shape, spacing, (0.45, 0.5, 0.4), 3.5 * min(spacing), (1.2, -0.8, 0.6), compact=True
        )
        assert np.count_nonzero(np.any(forward != 0, axis=-1)) < 0.5 * np.prod(shape)
        got = invert_displacement_field(forward, spacing)
        want, _ = _frozen_invert_per_voxel(forward, spacing)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got, want)  # -0.0 == +0.0: the sign of zero is free

    def test_support_touching_the_border_matches_full_grid(self):
        spacing = (1.5, 1.0, 2.0)
        forward = self._bump(
            (10, 9, 8), spacing, (0.0, 1.0, 0.5), 5.0, (-1.5, 1.0, 0.7), compact=True
        )
        assert np.array_equal(
            invert_displacement_field(forward, spacing),
            _frozen_invert_per_voxel(forward, spacing)[0],
        )

    def test_voxels_whose_index_round_trip_is_inexact_next_to_the_support(self):
        # (3 * 0.1) / 0.1 > 3 and (7 * 1.3) / 1.3 < 7: the voxel just
        # outside the support picks up a ~1e-16 weight of its neighbour
        # inside, which is why the iterated set is the *dilated* support.
        spacing = (0.1, 0.7, 1.3)
        assert (3 * 0.1) / 0.1 > 3 and (7 * 1.3) / 1.3 < 7
        rng = np.random.default_rng(5)
        forward = np.zeros((9, 8, 12, 3))
        forward[4:7, 2:6, 4:7] = rng.uniform(0.02, 0.08, size=(3, 4, 3, 3))
        want, _ = _frozen_invert_per_voxel(forward, spacing)
        assert want[3, 3, 5].any() and want[5, 3, 7].any()  # outside the support, not zero
        assert np.array_equal(invert_displacement_field(forward, spacing), want)

    def test_dense_field_matches_full_grid(self):
        spacing = (2.0, 1.5, 1.0)
        forward = self._bump(
            (9, 10, 11), spacing, (0.5, 0.5, 0.5), 6.0, (1.0, 0.5, -0.25), compact=False
        )
        assert np.all(np.any(forward != 0, axis=-1))
        assert np.array_equal(
            invert_displacement_field(forward, spacing, iterations=6),
            _frozen_invert_per_voxel(forward, spacing, iterations=6)[0],
        )

    def test_zero_field_inverts_to_zero(self):
        out = invert_displacement_field(np.zeros((4, 5, 6, 3)), (1.0, 1.0, 1.0))
        assert out.shape == (4, 5, 6, 3) and not out.any()


class TestInvertDisplacementAcrossAJump:
    """Where the plain fixed-point map is no contraction it must still converge."""

    SPACING = (3.0, 3.0, 3.0)

    def _jump(self):
        # 3 mm along x inside the slab, zero outside: u drops by a whole
        # 3 mm voxel across one voxel plane, as at the mesh boundary.
        forward = np.zeros((20, 8, 8, 3))
        forward[6:12, ..., 0] = 3.0 + 0.4 * np.cos(np.arange(8.0))[:, None]
        forward[6:12, ..., 1] = 0.5
        return forward

    def test_plain_iteration_orbits_and_the_library_does_not(self):
        forward = self._jump()
        even = _frozen_invert_displacement_field(forward, self.SPACING, iterations=10)
        odd = _frozen_invert_displacement_field(forward, self.SPACING, iterations=11)
        assert np.abs(even - odd).max() > 2.9  # the defect: a period-2 orbit
        assert _residual(forward, even, self.SPACING).max() > 2.9

        ten = invert_displacement_field(forward, self.SPACING, iterations=10)
        eleven = invert_displacement_field(forward, self.SPACING, iterations=11)
        assert _residual(forward, ten, self.SPACING).max() < 1e-2
        assert _residual(forward, eleven, self.SPACING).max() < 1e-2
        assert np.abs(ten - eleven).max() < 2e-3

    def test_voxels_the_plain_iteration_converged_are_untouched(self):
        """A voxel that retires within the plain steps takes no damped step."""
        forward = self._jump()
        plain, moving = _frozen_invert_per_voxel(forward, self.SPACING, 10, damped_steps=0)
        settled = ~moving
        assert settled.any() and not settled.all()
        got = invert_displacement_field(forward, self.SPACING, iterations=10)
        assert np.array_equal(got[settled], plain[settled])
        assert not np.array_equal(got[moving], plain[moving])


def _brain_shift(shape, shift_mm):
    from repro.imaging.phantom import BrainPhantom, brain_shift_field

    phantom = BrainPhantom()
    spacing = tuple(float(v) for v in 2.24 * np.asarray(phantom.head_semi_axes) / shape)
    labels = phantom.label_volume(shape, spacing)
    return brain_shift_field(labels, phantom.craniotomy_center(), magnitude_mm=shift_mm), spacing


class TestInvertDisplacementAccuracy:
    """The per-voxel iteration against the ten-sweep full-grid body it replaced.

    A voxel retires during the plain steps at its first step of
    ``PLAIN_STEP_TOL_MM`` or less, so where the map contracts its residual
    ``|v + u(x + v)|`` is below that; ten sweeps took it further, but
    by less than that step. A voxel that does not retire takes the same
    ten plain steps and the same damped tail as before, so the largest
    residual, which sits on those voxels (where ``u`` drops to zero across
    one voxel, as at a mesh boundary), is the old body's.
    """

    @staticmethod
    def _fields():
        bump = TestInvertDisplacementSupport._bump
        yield "jump", TestInvertDisplacementAcrossAJump._jump(None), (3.0, 3.0, 3.0)
        yield "shift 6 mm", *_brain_shift((24, 24, 16), 6.0)
        yield "shift 2 mm", *_brain_shift((24, 24, 16), 2.0)
        for spacing in [(1.0, 1.0, 1.0), (2.875, 2.875, 3.1)]:
            field = bump(
                (14, 12, 10), spacing, (0.45, 0.5, 0.4), 3.5 * min(spacing), (1.2, -0.8, 0.6),
                compact=True,
            )
            yield f"bump {spacing}", field, spacing

    def test_residual_and_distance_from_the_ten_sweep_body(self):
        for name, forward, spacing in self._fields():
            got, counts = invert_with_counts(forward, spacing)
            old = _frozen_invert_with_damped_tail(forward, spacing)
            new_res, old_res = _residual(forward, got, spacing), _residual(forward, old, spacing)
            assert np.abs(got - old).max() <= PLAIN_STEP_TOL_MM, name
            assert np.percentile(new_res, 99) <= 1e-3, name
            assert new_res.max() <= old_res.max(), name
            assert counts.voxel_sweeps < 10 * counts.active_voxels, name  # the old cost

    def test_counts_and_span(self):
        forward, spacing = _brain_shift((24, 24, 16), 6.0)
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            got, counts = invert_with_counts(forward, spacing)
        finally:
            set_tracer(previous)
        (span,) = [s for s in tracer.finished() if s.name == "invert field"]
        assert span.attrs["kind"] == "imaging"
        assert span.attrs["active_voxels"] == counts.active_voxels
        assert span.attrs["voxel_sweeps"] == counts.voxel_sweeps
        assert span.attrs["damped_voxels"] == counts.damped_voxels
        support = np.any(forward != 0, axis=-1)
        assert counts.active_voxels == np.count_nonzero(_dilate_one_voxel(support))
        assert counts.displaced_voxels == np.count_nonzero(np.any(got != 0, axis=-1))
        assert counts.active_voxels <= counts.voxel_sweeps
        assert np.array_equal(got, invert_displacement_field(forward, spacing))


def _frozen_warp(source, displacement_mm, fill_value=0.0, nearest=False):
    """``warp_volume`` as it stood before it sampled only the displaced voxels."""
    pts = source.voxel_centers() + np.asarray(displacement_mm, dtype=float)
    data = trilinear_sample(source, pts, fill_value=fill_value, nearest=nearest)
    return source.copy(data)


class TestWarpSupport:
    """Only displaced voxels are sampled; the others are the source voxel."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**30),
        shape=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
        density=st.floats(0.0, 1.0),
        labels=st.booleans(),
    )
    def test_support_equals_full_grid_and_the_rest_is_the_source(
        self, seed, shape, density, labels
    ):
        rng = np.random.default_rng(seed)
        spacing = tuple(rng.uniform(0.3, 3.0, 3))
        origin = tuple(rng.uniform(-20.0, 20.0, 3))
        if labels:
            data = rng.integers(0, 9, shape).astype(np.uint8)
        else:
            data = rng.normal(scale=40.0, size=shape)
        source = ImageVolume(data, spacing, origin)
        disp = rng.normal(scale=2.0 * max(spacing), size=(*shape, 3))
        disp[rng.random(shape) >= density] = 0.0
        disp[rng.random(shape) < 0.2, rng.integers(0, 3)] = 0.0  # zero on some axes only
        if disp.size and rng.random() < 0.5:
            disp[tuple(rng.integers(0, n) for n in shape) + (rng.integers(0, 3),)] = np.nan
        fill = float(rng.normal())
        with np.errstate(invalid="ignore"):  # the NaN point's float -> int cast
            got = warp_volume(source, disp, fill_value=fill, nearest=labels)
            want = _frozen_warp(source, disp, fill_value=fill, nearest=labels)
        moved = np.any(disp != 0, axis=-1)
        assert got.data.dtype == want.data.dtype == np.float64
        assert got.same_grid_as(source)
        assert np.array_equal(got.data[moved], want.data[moved])
        assert np.array_equal(got.data[~moved], source.data[~moved])
        assert np.all(got.data[np.isnan(disp).any(axis=-1)] == fill)

    def test_nearest_is_the_full_grid_warp_on_a_label_volume(self):
        labels = ImageVolume(
            np.random.default_rng(3).integers(0, 7, (12, 10, 8)).astype(np.uint8),
            (2.0, 1.5, 2.5),
            (-11.0, -7.5, -10.0),
        )
        forward = TestInvertDisplacementSupport._bump(
            labels.shape, labels.spacing, (0.5, 0.5, 0.5), 6.0, (2.0, -1.5, 1.0), compact=True
        )
        inverse = invert_displacement_field(forward, labels.spacing)
        got = warp_volume(labels, inverse, fill_value=0, nearest=True)
        want = _frozen_warp(labels, inverse, fill_value=0, nearest=True)
        assert np.count_nonzero(np.any(inverse != 0, axis=-1)) < 0.5 * labels.data.size
        assert np.array_equal(got.data, want.data)

    def test_off_grid_and_nan_points_get_the_fill_value(self):
        source = ImageVolume(np.arange(60.0).reshape(3, 4, 5) + 1.0, (1.0, 2.0, 0.5))
        disp = np.zeros((3, 4, 5, 3))
        disp[0, 0, 0] = (-5.0, 0.0, 0.0)  # off the grid
        disp[2, 3, 4, 2] = 0.5  # off the last face
        disp[1, 1, 1, 1] = np.nan
        disp[1, 2, 3, 0] = 1.0  # one voxel along x: exact
        for nearest in (False, True):
            with np.errstate(invalid="ignore"):
                got = warp_volume(source, disp, fill_value=-3.0, nearest=nearest).data
            assert got[0, 0, 0] == got[2, 3, 4] == got[1, 1, 1] == -3.0
            assert got[1, 2, 3] == source.data[2, 2, 3]
            untouched = ~np.any(disp != 0, axis=-1)
            assert np.count_nonzero(~untouched) == 4
            assert np.array_equal(got[untouched], source.data[untouched])

    def test_zero_displacement_is_the_source_exactly(self):
        # (3 * 0.1) / 0.1 > 3: the full-grid warp put the fill value on the
        # last plane of this grid, its centres' index rounding off the grid.
        source = ImageVolume(np.arange(1.0, 25.0).reshape(4, 3, 2), (0.1, 1.0, 1.0))
        assert (3 * 0.1) / 0.1 > 3
        full = _frozen_warp(source, np.zeros((4, 3, 2, 3)), fill_value=-1.0)
        assert np.all(full.data[3] == -1.0)
        got = warp_volume(source, np.zeros((4, 3, 2, 3)), fill_value=-1.0)
        assert np.array_equal(got.data, source.data)
