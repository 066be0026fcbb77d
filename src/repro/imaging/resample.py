"""Trilinear sampling, resampling, and displacement-field warping.

The final step of the paper's pipeline resamples the preoperative data
through the recovered volumetric deformation (≈0.5 s in the paper). All
routines here are fully vectorized gather operations, and every
trilinear lookup in the library — single volumes, the active surface's
force channels, the localization channels, field inversion, the rigid
registration's MI cost — takes its cells and weights from
:func:`axis_cells` and its samples from :func:`trilinear_gather`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.imaging.volume import ImageVolume
from repro.obs.trace import get_tracer
from repro.util import ShapeError


def _flat_points(points_world: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    pts = np.asarray(points_world, dtype=float)
    if pts.shape[-1] != 3:
        raise ShapeError(f"points_world must have trailing dimension 3, got {pts.shape}")
    return pts.reshape(-1, 3), pts.shape[:-1]


def world_to_index_rows(rows: np.ndarray, volume: ImageVolume) -> np.ndarray:
    """World -> fractional index, in place, on a ``(3, N)`` float array.

    The same ``(x - origin) / spacing`` per element as
    :meth:`ImageVolume.world_to_index`. Returns ``rows``.
    """
    rows -= volume._origin_arr[:, None]
    rows /= volume._spacing_arr[:, None]
    return rows


def cell_bounds(shape: tuple[int, int, int]):
    """Per-grid constants of the trilinear index computation.

    Returns ``(upper, cell_max, pitch, strides)``: the largest valid
    index and the largest lower-corner index per axis as ``(3, 1)``
    columns (they broadcast down the rows of a ``(3, N)`` coordinate
    array), the flat-offset multipliers ``(ny, nz)``, and the flat
    offsets to the upper neighbour along x, y, z (0 on a singleton axis).
    """
    nx, ny, nz = shape
    n = np.array(shape, dtype=np.intp)[:, None]
    strides = (ny * nz if nx > 1 else 0, nz if ny > 1 else 0, 1 if nz > 1 else 0)
    return (n - 1).astype(float), np.maximum(n - 2, 0), (ny, nz), strides


def trilinear_gather(
    channels,
    base: np.ndarray,
    strides: tuple[int, int, int],
    weights,
    complements,
) -> np.ndarray:
    """Eight-corner gather and trilinear blend of several channels.

    ``channels`` are ``C`` flat (C-order raveled) float64 volumes on
    one grid; ``base[p]`` is the flat offset of point ``p``'s lower
    corner ``(i0, j0, k0)`` and ``strides`` the flat offsets to the
    upper neighbour along x, y, z (0 on a singleton axis), so every
    corner is ``base + const``. ``weights`` are the three fractional
    weight rows ``fx, fy, fz`` in ``[0, 1]`` and ``complements`` their
    ``1 - f`` rows, as :func:`axis_cells` returns them. Returns ``(C, n)``.

    Index arithmetic and weights are the caller's (computed once for
    all channels); this is only the memory-bound gather. The blend
    order — x, then y, then z, each ``lo * (1 - f) + hi * f`` — means a
    channel's result does not depend on which other channels ride along.
    """
    di, dj, dk = strides
    fx, fy, fz = weights
    gx, gy, gz = complements
    out = np.empty((len(channels), base.shape[0]))

    def blend(lo, hi, g, f):
        # lo * g + hi * f in lo's buffer: no temporary per term.
        lo *= g
        hi *= f
        lo += hi
        return lo

    for c, flat in enumerate(channels):
        # Shifted views put the corner offset in the view's start, so
        # all eight gathers share the one index vector.
        c00 = blend(flat.take(base), flat[di:].take(base), gx, fx)
        c10 = blend(flat[dj:].take(base), flat[di + dj :].take(base), gx, fx)
        c01 = blend(flat[dk:].take(base), flat[di + dk :].take(base), gx, fx)
        c11 = blend(flat[dj + dk :].take(base), flat[di + dj + dk :].take(base), gx, fx)
        c0 = blend(c00, c10, gy, fy)
        c1 = blend(c01, c11, gy, fy)
        c0 *= gz
        c1 *= fz
        np.add(c0, c1, out=out[c])
    return out


def axis_cells(idx: np.ndarray, upper, cell_max):
    """The trilinear step's per-axis quantities of fractional indices ``idx``.

    ``idx`` is one axis's row of fractional voxel indices, or a ``(3, N)``
    block of all three; ``upper`` and ``cell_max`` are that axis's (or the
    ``(3, 1)`` columns of) :func:`cell_bounds`. Returns ``(inside, cell, f,
    1 - f)``: where the index lies on the grid (False for NaN), the lower
    corner clamped so the eight-corner gather stays in bounds, and the
    weight of the upper corner with its complement. Each element depends
    only on its own index, so a row gives the bits it has in a block.
    This is the library's one trilinear index/weight computation.
    """
    inside = (idx >= 0) & (idx <= upper)
    cell = np.clip(np.floor(idx).astype(np.intp), 0, cell_max)
    f = np.clip(idx - cell, 0.0, 1.0)
    return inside, cell, f, 1 - f


def sample_index_rows(
    idx: np.ndarray,
    bounds,
    channels: Sequence[np.ndarray],
    fills: np.ndarray,
) -> np.ndarray:
    """Trilinear samples of flat ``channels`` at index-space rows ``idx``.

    ``idx`` is a C-contiguous ``(3, N)`` array of fractional voxel
    indices — one row per axis, because numpy broadcasts a trailing axis
    of length 3 several times slower than three contiguous rows — and
    ``bounds`` the grid's :func:`cell_bounds`. Points outside the grid
    (or NaN) get ``fills[c]``. Returns ``(C, N)``, from one
    all-axes call of :func:`axis_cells`.
    """
    upper, cell_max, (ny, nz), strides = bounds
    inside, cell, f, g = axis_cells(idx, upper, cell_max)
    valid = inside.all(axis=0)
    i0, j0, k0 = cell
    base = (i0 * ny + j0) * nz + k0
    # Invalid points gathered from their clamped cells; the fill value
    # overwrites them.
    result = trilinear_gather(channels, base, strides, f, g)
    if not valid.all():
        result[:, ~valid] = fills[:, None]
    return result


def trilinear_sample_many(
    volumes: Sequence[ImageVolume],
    points_world: np.ndarray,
    fill_values: float | Sequence[float] = 0.0,
) -> np.ndarray:
    """Trilinearly sample several same-grid volumes at the same points.

    Index, validity and interpolation weights are computed once and
    shared by all channels; each channel then costs eight flat gathers.
    Every channel of the result is bit-identical to sampling that volume
    alone.

    Parameters
    ----------
    volumes:
        ``C`` volumes sharing shape, spacing and origin exactly.
    points_world:
        ``(..., 3)`` world coordinates.
    fill_values:
        Value for points outside the grid (or NaN): one scalar, or one
        per channel.

    Returns
    -------
    ``(C, *points_world.shape[:-1])`` float array.
    """
    pts, out_shape = _flat_points(points_world)
    first = volumes[0]
    for vol in volumes[1:]:
        if (
            vol.shape != first.shape
            or not np.array_equal(vol._spacing_arr, first._spacing_arr)
            or not np.array_equal(vol._origin_arr, first._origin_arr)
        ):
            raise ShapeError("trilinear_sample_many: volumes must share one grid")
    fills = np.broadcast_to(np.asarray(fill_values, dtype=float), (len(volumes),))

    # ``np.array`` always copies, so world -> index in place never
    # touches the caller's points.
    idx = world_to_index_rows(np.array(pts.T, order="C"), first)
    channels = [vol.data.astype(float, copy=False).ravel() for vol in volumes]
    result = sample_index_rows(idx, cell_bounds(first.shape), channels, fills)
    return result.reshape(len(volumes), *out_shape)


def trilinear_sample(
    volume: ImageVolume,
    points_world: np.ndarray,
    fill_value: float = 0.0,
    nearest: bool = False,
) -> np.ndarray:
    """Sample a volume at arbitrary world-space points.

    Parameters
    ----------
    volume:
        Source image.
    points_world:
        ``(..., 3)`` world coordinates.
    fill_value:
        Value returned for points outside the volume.
    nearest:
        If True use nearest-neighbour interpolation (for label volumes);
        otherwise trilinear.

    Returns
    -------
    Array of sampled values with shape ``points_world.shape[:-1]``.
    """
    if not nearest:
        return trilinear_sample_many([volume], points_world, fill_value)[0]
    flat, valid = nearest_flat_index(volume, points_world)
    result = np.full(flat.shape, fill_value, dtype=float)
    result[valid] = volume.data.ravel().take(flat[valid])
    return result.reshape(np.shape(points_world)[:-1])


def nearest_flat_index(
    volume: ImageVolume, points_world: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flat (C-order) index of the voxel nearest each world point.

    Returns ``(flat, valid)``, both of length ``N`` (the points
    flattened): ``valid`` is False where the rounded index falls off the
    grid (or the point is NaN), and there ``flat`` is 0, so
    ``data.ravel().take(flat)`` never leaves the buffer. One rounding
    serves every volume on the grid: a label gather and a mask test
    share it.
    """
    pts, _ = _flat_points(points_world)
    idx = world_to_index_rows(np.array(pts.T, order="C"), volume)
    np.rint(idx, out=idx)
    upper, _, (ny, nz), _ = cell_bounds(volume.shape)
    valid = ((idx >= 0) & (idx <= upper)).all(axis=0)
    if not valid.all():
        idx[:, ~valid] = 0.0
    i, j, k = idx.astype(np.intp)
    return (i * ny + j) * nz + k, valid


def resample_volume(
    source: ImageVolume,
    reference: ImageVolume,
    fill_value: float = 0.0,
    nearest: bool = False,
) -> ImageVolume:
    """Resample ``source`` onto the grid of ``reference``."""
    pts = reference.voxel_centers()
    data = trilinear_sample(source, pts, fill_value=fill_value, nearest=nearest)
    return reference.copy(data)


def warp_volume(
    source: ImageVolume,
    displacement_mm: np.ndarray,
    fill_value: float = 0.0,
    nearest: bool = False,
) -> ImageVolume:
    """Warp a volume through a dense displacement field (pull-back).

    ``displacement_mm`` has shape ``(*source.shape, 3)`` and is interpreted
    as the *inverse* map in world units: the output voxel at world point
    ``x`` takes the value of the source at ``x + displacement_mm(x)``.

    To deform scan 1 onto scan 2 with a *forward* FEM field ``u``
    (material points of scan 1 move by ``u``), pass the inverted field from
    :func:`invert_displacement_field`.
    """
    disp = np.asarray(displacement_mm, dtype=float)
    if disp.shape != (*source.shape, 3):
        raise ShapeError(
            f"displacement field shape {disp.shape} != {(*source.shape, 3)}"
        )
    # Where the displacement is exactly zero the pull-back point is the
    # voxel's own centre, so the output is the source voxel itself. Only
    # the displaced voxels (a NaN displacement among them) are sampled, at
    # the same centre + displacement sums as on the full grid.
    rows = disp.reshape(-1, 3)
    moved = np.flatnonzero((rows[:, 0] != 0) | (rows[:, 1] != 0) | (rows[:, 2] != 0))
    data = np.array(source.data, dtype=float, order="C")
    centers = source.index_to_world(np.column_stack(np.unravel_index(moved, source.shape)))
    data.reshape(-1)[moved] = trilinear_sample(
        source, centers + rows[moved], fill_value=fill_value, nearest=nearest
    )
    return source.copy(data)


#: A voxel of :func:`invert_displacement_field` retires during the plain
#: steps once one moves it no further than this: where the map contracts,
#: its residual ``|v + u(x + v)|`` is smaller still.
PLAIN_STEP_TOL_MM = 1e-6
#: A voxel whose last plain step was longer than this goes on with damped
#: steps until one is shorter ...
INVERSE_STEP_TOL_MM = 1e-3
#: ... or this many were taken (nine suffice on the benchmark phantoms).
DAMPED_STEPS_MAX = 20


class InverseCounts(NamedTuple):
    """What one :func:`invert_with_counts` call iterated.

    ``active_voxels`` were iterated (the support of ``u`` grown by one
    voxel); ``voxel_sweeps`` is the number of (voxel, step) pairs sampled,
    so ``voxel_sweeps / active_voxels`` is the sweeps a voxel took;
    ``damped_voxels`` took damped steps after the plain ones; and
    ``displaced_voxels`` is where the inverse is non-zero, the voxels
    :func:`warp_volume` samples through it.
    """

    active_voxels: int
    voxel_sweeps: int
    damped_voxels: int
    displaced_voxels: int


def _dilate_one_voxel(mask: np.ndarray) -> np.ndarray:
    """Binary dilation by the 3×3×3 cube, nothing outside the grid.

    The cube is separable: one voxel along each axis in turn, each step an
    OR of the mask with itself shifted by one either way.
    """
    grown = mask
    for axis in range(3):
        src, grown = grown, grown.copy()
        lead = (slice(None),) * axis
        head, tail = lead + (slice(1, None),), lead + (slice(None, -1),)
        grown[head] |= src[tail]
        grown[tail] |= src[head]
    return grown


def invert_displacement_field(
    displacement_mm: np.ndarray,
    spacing: tuple[float, float, float],
    iterations: int = 10,
) -> np.ndarray:
    """Approximately invert a dense forward displacement field.

    Uses the standard fixed-point iteration
    ``v_{n+1}(x) = -u(x + v_n(x))``: if material points move by ``u``,
    the pull-back field ``v`` satisfies ``v(x) = -u(x + v(x))``.
    Displacements are assumed smaller than the volume (true for brain
    shift, ~5-15 mm).

    Only voxels within one voxel of the support of ``u`` are iterated:
    elsewhere ``v_0 = -u = 0``, so every iterate samples ``u`` at the
    voxel's own centre, whose eight interpolation corners (allowing for
    rounding in the world-to-index map) all lie in that one-voxel
    neighbourhood and are zero. A brain-shift field is zero outside the
    mesh, which is most of the grid.

    Each voxel iterates on its own and retires as soon as one plain step
    moves it no more than :data:`PLAIN_STEP_TOL_MM` (four or five steps on
    a brain-shift field). A voxel still moving after ``iterations`` plain
    steps is held to the rule the whole grid once was: if its last step was
    longer than :data:`INVERSE_STEP_TOL_MM` (1-3 % of the voxels, on the
    mesh boundary) it continues with the damped step
    ``v <- (v - u(x + v)) / 2`` until one is shorter, at most
    :data:`DAMPED_STEPS_MAX` more. Both phases are one loop over a
    shrinking set of voxels; they differ only in the update and the
    tolerance.
    """
    return invert_with_counts(displacement_mm, spacing, iterations)[0]


def invert_with_counts(
    displacement_mm: np.ndarray,
    spacing: tuple[float, float, float],
    iterations: int = 10,
) -> tuple[np.ndarray, InverseCounts]:
    """:func:`invert_displacement_field` and the :class:`InverseCounts` of its work."""
    disp = np.asarray(displacement_mm, dtype=float)
    shape = disp.shape[:-1]
    channels = [np.ascontiguousarray(disp[..., a]).ravel() for a in range(3)]
    grid = ImageVolume(channels[0].reshape(shape), spacing)
    support = (channels[0] != 0) | (channels[1] != 0) | (channels[2] != 0)
    flat = np.flatnonzero(_dilate_one_voxel(support.reshape(shape)))
    # Voxel centres and iterates as (3, A) rows, the sampler's layout;
    # the centres are index_to_world's origin + index * spacing.
    base = np.stack(np.unravel_index(flat, shape)).astype(float)
    base *= grid._spacing_arr[:, None]
    base += grid._origin_arr[:, None]
    bounds, fills = cell_bounds(shape), np.zeros(3)
    # The voxels still moving, compacted: their columns of v, centres and
    # current iterates. A voxel's column of v is written when it retires.
    v = np.empty((3, flat.size))
    live, centers = np.arange(flat.size), base
    held = -np.stack([c.take(flat) for c in channels])
    sweeps = damped = 0
    with get_tracer().span("invert field", kind="imaging") as span:
        for step in range(iterations + DAMPED_STEPS_MAX):
            if not live.size:
                break
            if step == iterations:
                damped = live.size
            sweeps += live.size
            idx = world_to_index_rows(centers + held, grid)
            u_at = sample_index_rows(idx, bounds, channels, fills)
            # Where u drops to zero across one voxel (the mesh boundary) the
            # plain map is no contraction and settles into a period-2 orbit
            # millimetres wide; the averaged step halves the residual
            # v + u(x + v) there instead of reflecting it.
            stepped = -u_at if step < iterations else 0.5 * (held - u_at)
            # The last plain step decides who takes damped steps.
            tol = PLAIN_STEP_TOL_MM if step < iterations - 1 else INVERSE_STEP_TOL_MM
            going = np.linalg.norm(stepped - held, axis=0) > tol
            v[:, live[~going]] = stepped[:, ~going]
            live, centers, held = live[going], centers[:, going], stepped[:, going]
        v[:, live] = held  # still moving after the last damped step
        span.set(active_voxels=flat.size, voxel_sweeps=sweeps, damped_voxels=damped)
    inverse = np.zeros(disp.shape)
    inverse.reshape(-1, 3)[flat] = v.T
    displaced = int(np.count_nonzero((v[0] != 0) | (v[1] != 0) | (v[2] != 0)))
    return inverse, InverseCounts(flat.size, sweeps, damped, displaced)
