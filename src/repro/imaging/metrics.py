"""Image similarity metrics.

Mutual information (Wells/Viola style, via joint histogram) drives the
rigid registration; RMS / mean-absolute difference and normalized cross
correlation quantify the Figure-4 style match-quality comparisons.
"""

from __future__ import annotations

import numpy as np

from repro.util import ShapeError, ValidationError


def _paired(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"image shapes differ: {a.shape} vs {b.shape}")
    return a.ravel(), b.ravel()


def intensity_bins(x: np.ndarray, bins: int) -> np.ndarray:
    """Bin index of each value, linear over the array's own [min, max].

    A flat array occupies bin 0; the maximum falls in the last bin.
    """
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        return np.zeros(x.shape, dtype=np.intp)
    scaled = (x - lo) / (hi - lo) * bins
    return np.clip(scaled.astype(np.intp), 0, bins - 1)


def joint_histogram(
    a: np.ndarray,
    b: np.ndarray,
    bins: int = 32,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Joint intensity histogram of two same-shape images.

    Each image is linearly binned over its own [min, max] range; a flat
    image occupies a single bin. Returns a ``(bins, bins)`` count matrix.
    """
    if bins < 2:
        raise ValidationError(f"bins must be >= 2, got {bins}")
    av, bv = _paired(a, b)
    if mask is not None:
        m = np.asarray(mask, dtype=bool).ravel()
        if m.shape != av.shape:
            raise ShapeError("mask shape must match images")
        av, bv = av[m], bv[m]
    if av.size == 0:
        raise ValidationError("joint_histogram: no voxels selected")
    ia, ib = intensity_bins(av, bins), intensity_bins(bv, bins)
    counts = np.bincount(ia * bins + ib, minlength=bins * bins)
    return counts.reshape(bins, bins).astype(np.float64)


def histogram_mutual_information(hist: np.ndarray) -> float:
    """Shannon mutual information I(A;B) in nats of a joint count matrix."""
    pab = hist / hist.sum()
    pa = pab.sum(axis=1, keepdims=True)
    pb = pab.sum(axis=0, keepdims=True)
    nz = pab > 0
    p = pab[nz]
    return float(np.sum(p * np.log(p / (pa @ pb)[nz])))


def mutual_information(
    a: np.ndarray,
    b: np.ndarray,
    bins: int = 32,
    mask: np.ndarray | None = None,
) -> float:
    """Shannon mutual information I(A;B) in nats from a joint histogram."""
    return histogram_mutual_information(joint_histogram(a, b, bins=bins, mask=mask))


def rms_difference(a: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Root-mean-square intensity difference, optionally within a mask."""
    av, bv = _paired(a, b)
    diff = av - bv
    if mask is not None:
        diff = diff[np.asarray(mask, dtype=bool).ravel()]
    if diff.size == 0:
        raise ValidationError("rms_difference: no voxels selected")
    return float(np.sqrt(np.mean(diff * diff)))


def mean_absolute_difference(a: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Mean absolute intensity difference, optionally within a mask."""
    av, bv = _paired(a, b)
    diff = np.abs(av - bv)
    if mask is not None:
        diff = diff[np.asarray(mask, dtype=bool).ravel()]
    if diff.size == 0:
        raise ValidationError("mean_absolute_difference: no voxels selected")
    return float(np.mean(diff))


def normalized_cross_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of the two intensity distributions in [-1, 1]."""
    av, bv = _paired(a, b)
    av = av - av.mean()
    bv = bv - bv.mean()
    denom = np.sqrt(np.sum(av * av) * np.sum(bv * bv))
    if denom == 0:
        return 0.0
    return float(np.sum(av * bv) / denom)


def dice_coefficient(a: np.ndarray, b: np.ndarray) -> float:
    """Dice overlap of two boolean masks (1.0 = identical)."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ShapeError(f"mask shapes differ: {a.shape} vs {b.shape}")
    total = a.sum() + b.sum()
    if total == 0:
        return 1.0
    return float(2.0 * np.logical_and(a, b).sum() / total)
