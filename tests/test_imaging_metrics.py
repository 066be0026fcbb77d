"""Tests for image similarity metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.metrics import (
    dice_coefficient,
    joint_histogram,
    mean_absolute_difference,
    mutual_information,
    normalized_cross_correlation,
    rms_difference,
)
from repro.util import ShapeError, ValidationError


@pytest.fixture()
def images(rng):
    a = rng.normal(100, 20, (10, 10, 8))
    return a, a + rng.normal(0, 5, a.shape)


class TestJointHistogram:
    def test_counts_sum_to_voxels(self, images):
        a, b = images
        hist = joint_histogram(a, b, bins=16)
        assert hist.sum() == a.size

    def test_matches_scatter_add_reference(self, images):
        """bincount over the flattened bin pair == the np.add.at it replaced."""
        a, b = images
        mask = a > 95.0
        bins = 12

        def digitize(x):
            scaled = (x - x.min()) / (x.max() - x.min()) * bins
            return np.clip(scaled.astype(np.intp), 0, bins - 1)

        reference = np.zeros((bins, bins))
        np.add.at(reference, (digitize(a[mask]), digitize(b[mask])), 1.0)
        hist = joint_histogram(a, b, bins=bins, mask=mask)
        assert hist.dtype == np.float64 and hist.shape == (bins, bins)
        assert np.array_equal(hist, reference)

    def test_identical_images_diagonal(self):
        a = np.linspace(0, 1, 64).reshape(4, 4, 4)
        hist = joint_histogram(a, a, bins=8)
        assert np.all(hist == np.diag(np.diag(hist)))

    def test_mask_restricts(self, images):
        a, b = images
        mask = np.zeros(a.shape, dtype=bool)
        mask[:3] = True
        hist = joint_histogram(a, b, bins=8, mask=mask)
        assert hist.sum() == mask.sum()

    def test_flat_image_single_bin(self):
        a = np.zeros((3, 3, 3))
        b = np.linspace(0, 1, 27).reshape(3, 3, 3)
        hist = joint_histogram(a, b, bins=4)
        assert np.all(hist[1:, :] == 0)

    def test_rejects_bad_bins(self, images):
        a, b = images
        with pytest.raises(ValidationError):
            joint_histogram(a, b, bins=1)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            joint_histogram(np.zeros((2, 2, 2)), np.zeros((3, 3, 3)))


class TestMutualInformation:
    def test_self_mi_maximal(self, images):
        a, b = images
        assert mutual_information(a, a) > mutual_information(a, b)

    def test_independent_images_near_zero(self, rng):
        a = rng.normal(size=(12, 12, 12))
        b = rng.normal(size=(12, 12, 12))
        assert mutual_information(a, b, bins=8) < 0.08

    def test_nonnegative(self, rng):
        a = rng.normal(size=(8, 8, 8))
        b = rng.normal(size=(8, 8, 8))
        assert mutual_information(a, b) >= 0

    def test_invariant_to_intensity_scaling(self, images):
        a, b = images
        assert mutual_information(a, b) == pytest.approx(
            mutual_information(a * 3 + 7, b), rel=1e-9
        )


class TestDifferences:
    def test_rms_zero_for_identical(self, images):
        a, _ = images
        assert rms_difference(a, a) == 0.0

    def test_rms_of_constant_offset(self):
        a = np.zeros((4, 4, 4))
        assert rms_difference(a, a + 3.0) == pytest.approx(3.0)

    def test_mad_of_constant_offset(self):
        a = np.zeros((4, 4, 4))
        assert mean_absolute_difference(a, a + 2.0) == pytest.approx(2.0)

    def test_empty_mask_raises(self):
        a = np.zeros((2, 2, 2))
        with pytest.raises(ValidationError):
            rms_difference(a, a, mask=np.zeros_like(a, dtype=bool))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**30))
    def test_property_rms_at_least_mad(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4, 4))
        b = rng.normal(size=(4, 4, 4))
        assert rms_difference(a, b) >= mean_absolute_difference(a, b) - 1e-12


class TestNCC:
    def test_perfect_correlation(self, rng):
        a = rng.normal(size=(6, 6, 6))
        assert normalized_cross_correlation(a, 2 * a + 5) == pytest.approx(1.0)

    def test_anticorrelation(self, rng):
        a = rng.normal(size=(6, 6, 6))
        assert normalized_cross_correlation(a, -a) == pytest.approx(-1.0)

    def test_flat_image_gives_zero(self):
        assert normalized_cross_correlation(np.zeros((3, 3, 3)), np.ones((3, 3, 3))) == 0.0


class TestDice:
    def test_identical(self):
        m = np.zeros((4, 4, 4), dtype=bool)
        m[:2] = True
        assert dice_coefficient(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((4, 4, 4), dtype=bool)
        b = np.zeros_like(a)
        a[0], b[1] = True, True
        assert dice_coefficient(a, b) == 0.0

    def test_empty_pair_is_one(self):
        z = np.zeros((2, 2, 2), dtype=bool)
        assert dice_coefficient(z, z) == 1.0

    def test_half_overlap(self):
        a = np.zeros((4, 1, 1), dtype=bool)
        b = np.zeros_like(a)
        a[:2] = True
        b[1:3] = True
        assert dice_coefficient(a, b) == pytest.approx(0.5)
