"""Distance transform tests: exactness, saturation, metric properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.distance import (
    euclidean_distance_transform,
    saturated_distance_transform,
    saturation_window,
    signed_distance,
)
from repro.util import ValidationError


def brute_force_edt(mask: np.ndarray, spacing=(1.0, 1.0, 1.0)) -> np.ndarray:
    pts = np.argwhere(mask).astype(float) * np.asarray(spacing)
    grid = np.stack(
        np.meshgrid(*[np.arange(n) for n in mask.shape], indexing="ij"), axis=-1
    ).astype(float) * np.asarray(spacing)
    if len(pts) == 0:
        return np.full(mask.shape, np.inf)
    d2 = ((grid[..., None, :] - pts[None, None, None, :, :]) ** 2).sum(-1)
    return np.sqrt(d2.min(-1))


class TestExactEDT:
    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(3)
        mask = rng.random((7, 8, 6)) < 0.1
        mask[3, 4, 2] = True  # guarantee non-empty
        assert np.allclose(euclidean_distance_transform(mask), brute_force_edt(mask))

    def test_single_point(self):
        mask = np.zeros((5, 5, 5), dtype=bool)
        mask[2, 2, 2] = True
        dt = euclidean_distance_transform(mask)
        assert dt[2, 2, 2] == 0.0
        assert dt[0, 0, 0] == pytest.approx(np.sqrt(12))

    def test_anisotropic_spacing(self):
        mask = np.zeros((5, 5, 5), dtype=bool)
        mask[2, 2, 2] = True
        dt = euclidean_distance_transform(mask, spacing=(2.0, 1.0, 0.5))
        assert dt[0, 2, 2] == pytest.approx(4.0)
        assert dt[2, 0, 2] == pytest.approx(2.0)
        assert dt[2, 2, 0] == pytest.approx(1.0)

    def test_empty_mask_gives_inf(self):
        dt = euclidean_distance_transform(np.zeros((3, 3, 3), dtype=bool))
        assert np.all(np.isinf(dt))

    def test_full_mask_gives_zero(self):
        dt = euclidean_distance_transform(np.ones((3, 3, 3), dtype=bool))
        assert np.all(dt == 0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**30))
    def test_property_zero_on_mask_and_positive_off(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((5, 6, 4)) < 0.2
        if not mask.any():
            mask[0, 0, 0] = True
        dt = euclidean_distance_transform(mask)
        assert np.all(dt[mask] == 0)
        assert np.all(dt[~mask] > 0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**30))
    def test_property_one_lipschitz_along_axes(self, seed):
        """|dt[i+1] - dt[i]| <= voxel step along every axis."""
        rng = np.random.default_rng(seed)
        mask = rng.random((6, 5, 4)) < 0.15
        if not mask.any():
            mask[2, 2, 2] = True
        dt = euclidean_distance_transform(mask)
        for axis in range(3):
            diff = np.abs(np.diff(dt, axis=axis))
            assert np.all(diff <= 1.0 + 1e-9)


def _frozen_windowed_min_axis(f, axis, cap_vox, scale2):
    """Vectorized ``min_j (f[j] + scale2*(i-j)^2)`` for ``|i-j| <= cap_vox``."""
    moved = np.moveaxis(f, axis, -1)
    out = moved.copy()
    n = moved.shape[-1]
    for offset in range(1, min(cap_vox, n - 1) + 1):
        penalty = scale2 * offset * offset
        # shift +offset: candidate source at j = i - offset
        np.minimum(out[..., offset:], moved[..., :-offset] + penalty, out=out[..., offset:])
        # shift -offset: candidate source at j = i + offset
        np.minimum(out[..., :-offset], moved[..., offset:] + penalty, out=out[..., :-offset])
    return np.moveaxis(out, -1, axis)


def _frozen_saturated_distance_transform(mask, cap, spacing=None):
    """The float windowed-minimum transform over the whole grid, frozen
    verbatim when the byte first axis, the flat passes and the saturation
    window replaced it. It pins bit-identity: every array the new body
    returns must equal this one's, bit for bit."""
    mask = np.asarray(mask, dtype=bool)
    sp = (1.0, 1.0, 1.0) if spacing is None else spacing
    cap2 = cap * cap
    f = np.where(mask, 0.0, cap2)
    for axis in range(3):
        cap_vox = int(np.ceil(cap / sp[axis]))
        f = _frozen_windowed_min_axis(f, axis, cap_vox, sp[axis] ** 2)
        np.minimum(f, cap2, out=f)
    return np.sqrt(f)


@st.composite
def saturation_problems(draw):
    """(mask, cap, spacing): sparse and dense masks, empty and full ones,
    box blobs and their complements (``signed_distance``'s inside), features
    on the grid border, singleton axes, anisotropic spacing, and caps from
    below one voxel to beyond the grid."""
    shape = tuple(draw(st.integers(1, 12)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["empty", "full", "sparse", "dense", "blob", "hole", "border"]))
    if kind in ("empty", "full"):
        mask = np.full(shape, kind == "full")
    elif kind in ("sparse", "dense"):
        density = draw(st.floats(0.0, 0.2) if kind == "sparse" else st.floats(0.6, 1.0))
        mask = rng.random(shape) < density
    elif kind in ("blob", "hole"):
        lo = [int(rng.integers(0, n)) for n in shape]
        hi = [int(rng.integers(a + 1, n + 1)) for a, n in zip(lo, shape)]
        mask = np.zeros(shape, dtype=bool)
        mask[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = True
        if kind == "hole":
            mask = ~mask
    else:
        mask = np.zeros(shape, dtype=bool)
        axis = int(rng.integers(0, 3))
        mask[(slice(None),) * axis + (draw(st.sampled_from([0, -1])),)] = rng.random(
            shape[:axis] + shape[axis + 1:]
        ) < 0.5
    spacing = draw(st.none() | st.tuples(*[st.floats(0.3, 5.0)] * 3))
    cap = draw(st.floats(0.05, 0.99) | st.floats(1.0, 12.0) | st.floats(12.0, 80.0))
    return mask, cap, spacing


class TestSaturatedDT:
    def test_equals_clipped_exact(self):
        rng = np.random.default_rng(5)
        mask = rng.random((8, 7, 6)) < 0.08
        mask[4, 3, 2] = True
        exact = brute_force_edt(mask)
        for cap in (1.5, 3.0, 10.0):
            sat = saturated_distance_transform(mask, cap)
            assert np.allclose(sat, np.minimum(exact, cap))

    def test_equals_clipped_exact_on_a_strict_sub_window(self):
        """A blob and a hole well inside the grid: the window is a strict
        sub-box on every axis, and inside and outside it the transform is
        still ``min(cap, exact EDT)``."""
        mask = np.zeros((14, 13, 12), dtype=bool)
        mask[5:8, 6, 4:7] = True
        mask[6, 9, 5] = True
        sp = (1.0, 1.5, 0.75)
        exact = brute_force_edt(mask, sp)
        for cap in (1.2, 2.5):
            window = saturation_window(mask, cap, sp)
            assert all(0 < w.start and w.stop < n for w, n in zip(window, mask.shape))
            sat = saturated_distance_transform(mask, cap, sp)
            assert np.allclose(sat, np.minimum(exact, cap))
            assert np.array_equal(sat, _frozen_saturated_distance_transform(mask, cap, sp))

    def test_flat_outside_the_window(self):
        """Outside the box: exactly 0 on the mask, ``sqrt(cap²)`` elsewhere."""
        mask = np.ones((12, 10, 9), dtype=bool)
        mask[3:6, 4:7, 2:5] = False  # a hole: the window hugs it
        cap = 2.0
        window = saturation_window(mask, cap)
        assert [(w.start, w.stop) for w in window] == [(2, 7), (3, 8), (1, 6)]
        sat = saturated_distance_transform(mask, cap)
        outside = np.ones(mask.shape, dtype=bool)
        outside[window] = False
        assert np.all(sat[outside & mask] == 0.0)
        assert not np.any(~mask & outside)
        mask = ~mask  # a blob: the window is the blob plus the reach
        window = saturation_window(mask, cap)
        assert [(w.start, w.stop) for w in window] == [(2, 7), (3, 8), (1, 6)]
        sat = saturated_distance_transform(mask, cap)
        outside = np.ones(mask.shape, dtype=bool)
        outside[window] = False
        assert np.all(sat[outside] == np.sqrt(cap * cap))

    def test_no_window_for_empty_or_full_masks(self):
        assert saturation_window(np.zeros((3, 4, 5), dtype=bool), 2.0) is None
        assert saturation_window(np.ones((3, 4, 5), dtype=bool), 2.0) is None
        assert np.array_equal(saturated_distance_transform(np.ones((3, 4, 5), dtype=bool), 2.0),
                              np.zeros((3, 4, 5)))

    @settings(max_examples=300, deadline=None)
    @given(saturation_problems())
    def test_bit_identical_to_the_frozen_transform(self, problem):
        mask, cap, spacing = problem
        got = saturated_distance_transform(mask, cap, spacing)
        want = _frozen_saturated_distance_transform(mask, cap, spacing)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)

    def test_long_first_axis_does_not_wrap_a_byte(self):
        """300 voxels on axis 0 and a cap past them: the nearest-feature
        offset plus the source's ``reach + 1`` reaches 599, which a one-byte
        sum would wrap to a nearer, wrong offset."""
        mask = np.zeros((300, 2, 3), dtype=bool)
        mask[0, 1, 2] = True
        mask[150, 0, 0] = True
        got = saturated_distance_transform(mask, 400.0)
        assert np.array_equal(got, _frozen_saturated_distance_transform(mask, 400.0))
        assert got[299, 0, 0] == 149.0

    def test_anisotropic(self):
        mask = np.zeros((6, 6, 6), dtype=bool)
        mask[3, 3, 3] = True
        sp = (2.0, 1.0, 1.0)
        sat = saturated_distance_transform(mask, 4.0, sp)
        exact = brute_force_edt(mask, sp)
        assert np.allclose(sat, np.minimum(exact, 4.0))

    def test_empty_mask_is_flat_cap(self):
        sat = saturated_distance_transform(np.zeros((4, 4, 4), dtype=bool), 5.0)
        assert np.all(sat == 5.0)

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValidationError):
            saturated_distance_transform(np.ones((2, 2, 2), dtype=bool), 0.0)


class TestSignedDistance:
    def test_sign_convention(self):
        mask = np.zeros((8, 8, 8), dtype=bool)
        mask[2:6, 2:6, 2:6] = True
        sd = signed_distance(mask, cap=4.0)
        assert sd[4, 4, 4] < 0  # deep inside
        assert sd[0, 0, 0] > 0  # outside

    def test_zero_crossing_near_boundary(self):
        mask = np.zeros((8, 8, 8), dtype=bool)
        mask[:4] = True
        sd = signed_distance(mask, cap=4.0)
        # Boundary between index 3 and 4 along x.
        assert np.all(sd[3] < 0)
        assert np.all(sd[4] > 0)
        assert np.allclose(np.abs(sd[3]), np.abs(sd[4]))

    def test_rejects_degenerate_masks(self):
        with pytest.raises(ValidationError):
            signed_distance(np.zeros((3, 3, 3), dtype=bool), 2.0)
        with pytest.raises(ValidationError):
            signed_distance(np.ones((3, 3, 3), dtype=bool), 2.0)
