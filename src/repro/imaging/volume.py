"""The :class:`ImageVolume` container.

A minimal stand-in for a medical image: a 3-D array plus the geometric
metadata (voxel spacing, world origin) needed to move between index space
``(i, j, k)`` and physical space ``(x, y, z)`` in millimetres. Axis order
is ``(x, y, z)`` throughout the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util import ShapeError, ValidationError, check_volume_like


@dataclass
class ImageVolume:
    """A 3-D scalar image with voxel spacing and world origin.

    Parameters
    ----------
    data:
        ``(nx, ny, nz)`` array of voxel values. Any dtype; the FEM and
        registration code converts to float where needed.
    spacing:
        Physical size of a voxel along each axis, in millimetres.
    origin:
        World coordinate of the centre of voxel ``(0, 0, 0)``.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    _spacing_arr: np.ndarray = field(init=False, repr=False)
    _origin_arr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.data = check_volume_like(self.data, "ImageVolume.data")
        self._spacing_arr = np.asarray(self.spacing, dtype=float)
        self._origin_arr = np.asarray(self.origin, dtype=float)
        if self._spacing_arr.shape != (3,) or self._origin_arr.shape != (3,):
            raise ShapeError("spacing and origin must be length-3")
        if np.any(self._spacing_arr <= 0):
            raise ShapeError(f"spacing must be positive, got {self.spacing}")

    # -- geometry ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def voxel_volume(self) -> float:
        """Physical volume of one voxel in mm^3."""
        return float(np.prod(self._spacing_arr))

    @property
    def physical_extent(self) -> np.ndarray:
        """Physical size of the volume along each axis (mm)."""
        return self._spacing_arr * np.asarray(self.shape)

    def index_to_world(self, ijk: np.ndarray) -> np.ndarray:
        """Map (possibly fractional) voxel indices to world coordinates.

        ``ijk`` has shape ``(..., 3)``; the result has the same shape.
        """
        ijk = np.asarray(ijk, dtype=float)
        return self._origin_arr + ijk * self._spacing_arr

    def world_to_index(self, xyz: np.ndarray) -> np.ndarray:
        """Map world coordinates to (fractional) voxel indices."""
        xyz = np.asarray(xyz, dtype=float)
        return (xyz - self._origin_arr) / self._spacing_arr

    def voxel_centers(self) -> np.ndarray:
        """World coordinates of every voxel centre, shape ``(*shape, 3)``.

        Column ``a`` is ``origin[a] + i * spacing[a]`` on one axis of
        ``shape[a]`` values, broadcast over the grid: the same two
        operations per element as :meth:`index_to_world`.
        """
        centers = np.empty((*self.shape, 3))
        for a, n in enumerate(self.shape):
            axis = self._origin_arr[a] + np.arange(n, dtype=float) * self._spacing_arr[a]
            centers[..., a] = axis.reshape([n if b == a else 1 for b in range(3)])
        return centers

    # -- data hygiene ------------------------------------------------------

    def nonfinite_count(self) -> int:
        """Number of NaN/Inf voxels (0 for integer-typed data)."""
        if not np.issubdtype(self.data.dtype, np.floating):
            return 0
        return int(np.count_nonzero(~np.isfinite(self.data)))

    def nonfinite_fraction(self) -> float:
        """Fraction of NaN/Inf voxels in ``[0, 1]``."""
        return self.nonfinite_count() / self.data.size

    def validate_finite(self, name: str = "volume") -> "ImageVolume":
        """Raise :class:`ValidationError` if any voxel is NaN/Inf.

        Returns ``self`` so the check can be chained inline. A corrupted
        intraoperative acquisition must fail *here*, loudly, instead of
        propagating NaNs into a silently garbage deformation field.
        """
        bad = self.nonfinite_count()
        if bad:
            raise ValidationError(
                f"{name} contains {bad} non-finite voxels "
                f"({self.nonfinite_fraction():.1%} of {self.data.size})"
            )
        return self

    def sanitized(self, fill: float = 0.0) -> tuple["ImageVolume", int]:
        """Copy with NaN/Inf voxels replaced by ``fill``.

        Returns ``(volume, n_replaced)``; when the data is already
        finite the volume itself is returned unchanged (no copy).
        """
        bad = self.nonfinite_count()
        if bad == 0:
            return self, 0
        data = self.data.copy()
        data[~np.isfinite(data)] = fill
        return ImageVolume(data, self.spacing, self.origin), bad

    # -- construction helpers ---------------------------------------------

    def copy(self, data: np.ndarray | None = None) -> "ImageVolume":
        """Copy the volume, optionally substituting the voxel array.

        The substituted array must have the same shape so geometry stays
        consistent.
        """
        new = self.data.copy() if data is None else np.asarray(data)
        if new.shape != self.data.shape:
            raise ShapeError(
                f"replacement data shape {new.shape} != volume shape {self.data.shape}"
            )
        return ImageVolume(new, self.spacing, self.origin)

    def astype(self, dtype) -> "ImageVolume":
        return ImageVolume(self.data.astype(dtype), self.spacing, self.origin)

    def same_grid_as(self, other: "ImageVolume", atol: float = 1e-9) -> bool:
        """True when both volumes share shape, spacing and origin."""
        return (
            self.shape == other.shape
            and bool(np.allclose(self._spacing_arr, other._spacing_arr, atol=atol))
            and bool(np.allclose(self._origin_arr, other._origin_arr, atol=atol))
        )

    @classmethod
    def zeros(
        cls,
        shape: tuple[int, int, int],
        spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
        origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
        dtype=np.float64,
    ) -> "ImageVolume":
        return cls(np.zeros(shape, dtype=dtype), spacing, origin)
