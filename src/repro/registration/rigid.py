"""MI-based rigid registration (Wells/Viola style).

Registers a *moving* volume onto a *fixed* volume by maximizing the
mutual information of the intensity pair over 6 rigid parameters, with a
coarse-to-fine pyramid and Powell's direction-set optimizer. This is the
"rigid registration" stage of the paper's intraoperative timeline: it
accounts for patient/scan positioning differences but deliberately makes
no attempt to correct nonrigid deformation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imaging.metrics import histogram_mutual_information, intensity_bins
from repro.imaging.resample import (
    axis_cells,
    cell_bounds,
    trilinear_gather,
    trilinear_sample,
)
from repro.imaging.volume import ImageVolume
from repro.obs.trace import get_tracer
from repro.registration.powell import minimize_powell
from repro.registration.pyramid import pyramid
from repro.registration.transform import RigidTransform, rotation_matrix
from repro.util import ShapeError, ValidationError, default_rng
from repro.util.rng import SeedLike


@dataclass
class RegistrationResult:
    """Outcome of :func:`register_rigid`.

    Attributes
    ----------
    transform:
        World-space transform mapping fixed-grid points into the moving
        volume (i.e. resampling the moving image at
        ``transform.apply(x)`` aligns it with the fixed image).
    mutual_information:
        Final MI value (nats) at the solution on the finest level.
    evaluations:
        Total number of cost evaluations across all pyramid levels.
    level_params:
        Parameter vector after each pyramid level, coarsest first.
    """

    transform: RigidTransform
    mutual_information: float
    evaluations: int
    level_params: list[np.ndarray]


class MutualInformationCost:
    """Negative MI of fixed samples against the moving volume under a transform.

    One instance per pyramid level. Everything that does not depend on
    the six parameters is computed here once: the fixed points relative
    to the rotation centre, the fixed samples' histogram rows (bin index
    times ``bins``), the moving volume as one flat float array, and its
    grid constants. A call maps the points with the same per-element
    arithmetic as ``RigidTransform.apply`` followed by
    ``ImageVolume.world_to_index``, samples, bins the moving side and
    reads MI off the joint histogram.

    Powell's line searches move one parameter at a time, so a call
    remembers what the next one may reuse: the rotation matrix and the
    rotated points, keyed on the bits of the three angles, and per axis
    the index row with its :func:`~repro.imaging.resample.axis_cells`
    quantities, keyed on the bits of that row of the rotation matrix and
    of that axis's translation. Every element of a row is a function of
    those bits alone, so a reused row is the row a fresh call computes.
    Keys are bytes, not values: ``-0.0`` and ``0.0`` (or two NaNs) are
    different keys. A translation step recomputes one row of three and
    no matrix product.
    """

    def __init__(
        self,
        fixed_values: np.ndarray,
        fixed_points: np.ndarray,
        moving: ImageVolume,
        center: tuple[float, float, float],
        bins: int,
    ):
        if bins < 2:
            raise ValidationError(f"bins must be >= 2, got {bins}")
        fixed_values = np.asarray(fixed_values, dtype=float)
        fixed_points = np.asarray(fixed_points, dtype=float)
        if fixed_values.ndim != 1 or fixed_points.shape != (len(fixed_values), 3):
            raise ShapeError(
                f"{fixed_values.shape} fixed values need (N, 3) points, "
                f"got {fixed_points.shape}"
            )
        if len(fixed_values) == 0:
            raise ValidationError("MutualInformationCost: no samples")
        self.evaluations = 0
        self._bins = bins
        self._center = np.asarray(center, dtype=float)
        self._centred = fixed_points - self._center
        self._fixed_rows = intensity_bins(fixed_values, bins) * bins
        self._channels = [moving.data.astype(float, copy=False).ravel()]
        self._origin = moving._origin_arr
        self._spacing = moving._spacing_arr
        self._upper, self._cell_max, (ny, nz), self._strides = cell_bounds(moving.shape)
        self._pitch = (ny * nz, nz, 1)
        self._angles = None
        self._matrix = self._rotated = None
        self._row_keys: list[bytes | None] = [None, None, None]
        self._rows: list[tuple] = [(), (), ()]

    def _row(self, axis: int, params: np.ndarray) -> tuple:
        """``(inside, flat offset of the lower cell, f, 1 - f)`` along ``axis``."""
        key = self._matrix[axis].tobytes() + params[axis].tobytes()
        if key != self._row_keys[axis]:
            if self._rotated is None:
                # The (N, 3) @ (3, 3) product ``apply`` performs.
                self._rotated = self._centred @ self._matrix.T
            idx = self._rotated[:, axis] + self._center[axis]
            idx += params[axis]
            idx -= self._origin[axis]
            idx /= self._spacing[axis]
            inside, cell, f, g = axis_cells(idx, self._upper[axis], self._cell_max[axis])
            self._row_keys[axis] = key
            self._rows[axis] = inside, cell * self._pitch[axis], f, g
        return self._rows[axis]

    def sample(self, params: np.ndarray) -> np.ndarray:
        """The moving volume at the transformed fixed points (0 outside it)."""
        p = np.asarray(params, dtype=float)
        if p.shape != (6,):
            raise ShapeError(f"params must have shape (6,), got {p.shape}")
        angles = p[3:].tobytes()
        if angles != self._angles:
            self._angles = angles
            self._matrix = rotation_matrix(*p[3:])
            self._rotated = None
        inside, offset, f, g = zip(*(self._row(axis, p) for axis in range(3)))
        base = offset[0] + offset[1] + offset[2]
        moved = trilinear_gather(self._channels, base, self._strides, f, g)[0]
        valid = inside[0] & inside[1] & inside[2]
        if not valid.all():
            moved[~valid] = 0.0
        return moved

    def __call__(self, params: np.ndarray) -> float:
        self.evaluations += 1
        moved = self.sample(params)
        bins = self._bins
        hist = np.bincount(
            self._fixed_rows + intensity_bins(moved, bins), minlength=bins * bins
        )
        return -histogram_mutual_information(hist.reshape(bins, bins))


def resample_moving(
    fixed: ImageVolume,
    moving: ImageVolume,
    transform: RigidTransform,
    nearest: bool = False,
    fill_value: float = 0.0,
) -> ImageVolume:
    """Resample the moving image onto the fixed grid through a transform."""
    pts = transform.apply(fixed.voxel_centers())
    return fixed.copy(trilinear_sample(moving, pts, fill_value=fill_value, nearest=nearest))


def register_rigid(
    fixed: ImageVolume,
    moving: ImageVolume,
    levels: int = 2,
    bins: int = 32,
    max_samples: int = 20000,
    initial: RigidTransform | None = None,
    max_iter: int = 4,
    seed: SeedLike = 0,
) -> RegistrationResult:
    """Maximize MI over 6 rigid parameters, coarse to fine.

    Parameters
    ----------
    fixed, moving:
        Volumes to align; the returned transform maps fixed-grid world
        points into the moving volume.
    levels:
        Pyramid depth (each level halves resolution).
    bins:
        Joint-histogram bins for MI.
    max_samples:
        Voxel subsample size per level for the MI estimate — the
        stochastic-sampling trick that makes MI registration fast.
    initial:
        Warm start (e.g. the previous intraoperative scan's transform).
    max_iter:
        Powell iterations per level.
    """
    if levels < 1:
        raise ValidationError(f"levels must be >= 1, got {levels}")
    rng = default_rng(seed)
    center = tuple(
        float(o + e / 2.0) for o, e in zip(fixed.origin, fixed.physical_extent)
    )
    params = (
        initial.params() if initial is not None else RigidTransform.identity(center).params()
    )
    evaluations = 0
    level_params: list[np.ndarray] = []
    mi_final = 0.0
    for level, level_fixed in enumerate(pyramid(fixed, levels)):
        values = level_fixed.data.astype(float).ravel()
        # Restrict MI to informative voxels (above-background intensity)
        # plus a random subsample for speed.
        keep = np.flatnonzero(values > values.mean() * 0.25)
        if len(keep) <= 100:
            keep = np.arange(len(values))
        if len(keep) > max_samples:
            keep = keep[rng.choice(len(keep), size=max_samples, replace=False)]
        values = values[keep]
        # World centres of the kept voxels only, not of the whole grid.
        pts = level_fixed.index_to_world(
            np.stack(np.unravel_index(keep, level_fixed.shape), axis=-1)
        )

        cost = MutualInformationCost(values, pts, moving, center, bins)
        with get_tracer().span(
            "mi level", kind="registration", level=level, samples=len(values)
        ) as span:
            params, fun = minimize_powell(cost, params, max_iter=max_iter, ftol=1e-5)
            mi_final = -float(fun)
            span.set(evaluations=cost.evaluations, mutual_information=mi_final)
        evaluations += cost.evaluations
        level_params.append(params.copy())
    return RegistrationResult(
        transform=RigidTransform.from_params(params, center),
        mutual_information=mi_final,
        evaluations=evaluations,
        level_params=level_params,
    )
