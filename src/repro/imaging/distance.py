"""Euclidean distance transforms.

The paper converts every preoperative tissue-class segmentation into a
*spatially varying localization model* by computing a **saturated distance
transform** (Ragnemalm's Euclidean DT, clipped at a saturation radius).
Those models become extra channels for the intraoperative k-NN
classification.

Two implementations are provided:

* :func:`euclidean_distance_transform` — the exact transform, via the
  Felzenszwalb–Huttenlocher separable lower-envelope algorithm applied
  axis by axis.
* :func:`saturated_distance_transform` — the transform the pipeline
  actually uses. Because distances are clipped at a saturation radius
  ``cap``, the lower envelope only needs to consider parabola centres
  within ``cap`` voxels, which turns each axis pass into a fully
  vectorized windowed minimum (exact within the cap, by construction).
  The first pass reads the mask in unsigned bytes, every pass is a shift
  of one flat buffer (no transposed copies), and only the
  :func:`saturation_window` — the box where the answer is not flat — is
  computed.
"""

from __future__ import annotations

import numpy as np

from repro.util import ValidationError, check_positive, check_volume_like

_INF = np.float64(np.inf)


def _envelope_1d(f: np.ndarray) -> np.ndarray:
    """Felzenszwalb–Huttenlocher 1-D squared-distance lower envelope.

    Computes ``d[i] = min_j (f[j] + (i - j)**2)`` for one line.
    """
    n = f.shape[0]
    d = np.empty(n)
    v = np.empty(n, dtype=np.intp)  # locations of parabolas in envelope
    z = np.empty(n + 1)  # boundaries between parabolas
    k = 0
    v[0] = 0
    z[0] = -_INF
    z[1] = _INF
    for q in range(1, n):
        if f[q] == _INF:
            continue
        if f[v[0]] == _INF:
            # First finite parabola seen on this line.
            v[0] = q
            continue
        s = ((f[q] + q * q) - (f[v[k]] + v[k] * v[k])) / (2 * q - 2 * v[k])
        while s <= z[k]:
            k -= 1
            s = ((f[q] + q * q) - (f[v[k]] + v[k] * v[k])) / (2 * q - 2 * v[k])
        k += 1
        v[k] = q
        z[k] = s
        z[k + 1] = _INF
    k = 0
    for q in range(n):
        while z[k + 1] < q:
            k += 1
        d[q] = (q - v[k]) ** 2 + f[v[k]] if f[v[k]] != _INF else _INF
    return d


def _transform_axis_exact(f: np.ndarray, axis: int) -> np.ndarray:
    """Apply the 1-D envelope transform along one axis of a volume."""
    out = np.empty_like(f)
    others = [n for a, n in enumerate(f.shape) if a != axis]
    for rest in np.ndindex(*others):
        line_index = rest[:axis] + (slice(None),) + rest[axis:]
        line = f[line_index]
        out[line_index] = _INF if np.all(line == _INF) else _envelope_1d(line)
    return out


def euclidean_distance_transform(mask: np.ndarray, spacing: tuple[float, float, float] | None = None) -> np.ndarray:
    """Exact Euclidean distance (in voxels, or mm if ``spacing``) to the mask.

    Parameters
    ----------
    mask:
        Boolean volume; ``True`` voxels are the feature set (distance 0).
    spacing:
        Optional per-axis voxel size. When given, distances are physical.
        Anisotropy is handled by scaling each axis pass.

    Returns
    -------
    Distance volume (``inf`` everywhere if the mask is empty).
    """
    mask = check_volume_like(np.asarray(mask, dtype=bool), "mask")
    sp = (1.0, 1.0, 1.0) if spacing is None else spacing
    f = np.where(mask, 0.0, _INF)
    for axis in range(3):
        # Scale to voxel units of this axis, transform, scale back: the
        # envelope works on integer-lattice parabolas.
        scale = sp[axis] ** 2
        f = _transform_axis_exact(f / scale, axis) * scale
    return np.sqrt(f)


def _penalties(cap: float, step: float, n: int) -> list[float]:
    """``step² · o · o`` for the offsets ``o = 1, 2, …`` that can lower a value.

    An axis pass of ``n`` voxels compares a value against its neighbours
    ``o`` voxels away plus this penalty, for ``o`` up to ``ceil(cap / step)``
    and ``n − 1``. Every value is at most ``cap²`` from the start, so an
    offset whose penalty reaches ``cap²`` never wins, and neither does any
    larger one (the penalty grows with ``o``): the list stops there. ``len``
    of it is the pass's reach.
    """
    cap2, scale2 = cap * cap, step**2
    penalties = []
    for offset in range(1, min(int(np.ceil(cap / step)), n - 1) + 1):
        penalty = scale2 * offset * offset
        if penalty >= cap2:
            break
        penalties.append(penalty)
    return penalties


def saturation_window(
    mask: np.ndarray,
    cap: float,
    spacing: tuple[float, float, float] | None = None,
) -> tuple[slice, slice, slice] | None:
    """The box where :func:`saturated_distance_transform` is not flat.

    Outside it the transform is exactly 0 on the mask and ``sqrt(cap²)``
    elsewhere. Per axis the box is ``[first feature − reach, last feature
    + reach] ∩ [first non-feature − 1, last non-feature + 1]``, clipped to
    the grid, where the reach is the number of offsets whose penalty stays
    below ``cap²``. A non-feature voxel outside the first interval has no
    feature within reach on that axis; a voxel outside the second is a
    feature, and for a voxel inside the box the layer of features at its
    edge is no farther than the features it cuts off. ``None`` for an
    empty or a full mask, which have no such box.
    """
    mask = np.asarray(mask, dtype=bool)
    sp = (1.0, 1.0, 1.0) if spacing is None else spacing
    window = []
    for axis in range(3):
        others = tuple(a for a in range(3) if a != axis)
        features = np.flatnonzero(mask.any(axis=others))
        background = np.flatnonzero(~mask.all(axis=others))
        if not features.size or not background.size:
            return None
        reach = len(_penalties(cap, sp[axis], mask.shape[axis]))
        lo = max(features[0] - reach, background[0] - 1, 0)
        hi = min(features[-1] + reach, background[-1] + 1, mask.shape[axis] - 1)
        window.append(slice(int(lo), int(hi) + 1))
    return tuple(window)


def _shift_min(source: np.ndarray, steps: list, stride: int) -> np.ndarray:
    """``min(source[i], min_o source[i ∓ o·stride] + steps[o − 1])`` on a flat buffer.

    ``stride`` is the distance between neighbours along the pass's axis.
    One preallocated temporary holds ``source + step``; every voxel meets
    its candidates nearest offset first, ``i − o`` before ``i + o``.
    """
    out = source.copy()
    shifted = np.empty_like(source)
    for offset, step in enumerate(steps, start=1):
        k = offset * stride
        np.add(source[:-k], step, out=shifted[:-k])
        np.minimum(out[k:], shifted[:-k], out=out[k:])
        np.add(source[k:], step, out=shifted[:-k])
        np.minimum(out[:-k], shifted[:-k], out=out[:-k])
    return out


def _first_axis(mask: np.ndarray, penalties: list[float], cap2: float) -> np.ndarray:
    """Axis 0's pass straight from the mask, in the narrowest unsigned type.

    ``d[i] = min_o (source[i ∓ o] + o)`` over the reach, ``len(penalties)``,
    with ``source`` 0 on features and ``reach + 1`` elsewhere, is the
    offset of the nearest feature within reach, or ``reach + 1`` if there
    is none; the squared distance is then ``table[d]``. This equals the
    float pass over ``{0, cap²}`` because ``0 + penalty == penalty`` and
    the penalty grows with the offset. The largest sum, ``2·reach + 1``,
    must not wrap: the type is the smallest unsigned one that holds it.
    Axis 0 is the outermost, so its neighbours are a flat shift apart
    with no guard.
    """
    n0, n1, n2 = mask.shape
    reach = len(penalties)
    dtype = np.min_scalar_type(2 * reach + 1)
    source = np.where(mask, dtype.type(0), dtype.type(reach + 1))
    offsets = [dtype.type(offset) for offset in range(1, reach + 1)]
    nearest = _shift_min(source.reshape(-1), offsets, n1 * n2)
    table = np.array([0.0, *penalties, cap2])
    return table[nearest].reshape(mask.shape)


def saturated_distance_transform(
    mask: np.ndarray,
    cap: float,
    spacing: tuple[float, float, float] | None = None,
) -> np.ndarray:
    """Euclidean distance to the mask, saturated (clipped) at ``cap``.

    This is the localization-model transform of the paper: beyond the
    saturation radius the model is flat, which both regularizes the k-NN
    feature space and (here) permits an exact windowed-minimum
    implementation that is fully vectorized.

    Within the cap the result equals the exact Euclidean distance; at and
    beyond the cap it equals ``cap``.

    Only the :func:`saturation_window` is computed. Axis 0 comes from the
    mask in bytes (:func:`_first_axis`); axes 1 and 2 run as flat shifts
    over a copy in which every line is followed by ``reach`` guard cells
    at ``cap²``: a shift that runs off the end of a line reads a guard,
    and ``cap² + penalty`` never lowers a value, which is at most ``cap²``.
    """
    mask = check_volume_like(np.asarray(mask, dtype=bool), "mask")
    check_positive(cap, "cap")
    sp = (1.0, 1.0, 1.0) if spacing is None else spacing
    cap2 = cap * cap
    out = np.where(mask, 0.0, np.sqrt(np.float64(cap2)))
    window = saturation_window(mask, cap, sp)
    if window is None:
        return out
    inner = mask[window]
    n0, n1, n2 = inner.shape
    penalties = [_penalties(cap, step, n) for step, n in zip(sp, inner.shape)]
    f = np.full((n0, n1 + len(penalties[1]), n2 + len(penalties[2])), cap2)
    f[:, :n1, :n2] = _first_axis(inner, penalties[0], cap2)
    flat = _shift_min(f.reshape(-1), penalties[1], f.shape[2])
    flat = _shift_min(flat, penalties[2], 1)
    np.sqrt(flat.reshape(f.shape)[:, :n1, :n2], out=out[window])
    return out


def signed_distance(
    mask: np.ndarray,
    cap: float,
    spacing: tuple[float, float, float] | None = None,
) -> np.ndarray:
    """Signed saturated distance: negative inside the mask, positive outside.

    Used by the phantom and the active surface as a smooth implicit
    representation of an object boundary.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any() or mask.all():
        raise ValidationError("signed_distance requires a mask with both inside and outside voxels")
    outside = saturated_distance_transform(mask, cap, spacing)
    inside = saturated_distance_transform(~mask, cap, spacing)
    return outside - inside
