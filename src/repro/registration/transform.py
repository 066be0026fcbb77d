"""6-DOF rigid transforms in world (mm) space.

Parameterized as three Euler rotations (radians, applied X then Y then Z)
about a configurable world-space centre, followed by a translation. The
representation is deliberately minimal: the registration only ever needs
apply / inverse / compose and a flat parameter vector for the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util import ShapeError


def rotation_matrix(rx: float, ry: float, rz: float) -> np.ndarray:
    """Rotation matrix R = Rz @ Ry @ Rx."""
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return Rz @ Ry @ Rx


@dataclass(frozen=True)
class RigidTransform:
    """Rigid world-space transform ``x -> R (x - c) + c + t``.

    Parameters
    ----------
    translation:
        ``(tx, ty, tz)`` in mm.
    rotation:
        ``(rx, ry, rz)`` Euler angles in radians (X, then Y, then Z).
    center:
        Rotation centre in world coordinates.
    """

    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    rotation: tuple[float, float, float] = (0.0, 0.0, 0.0)
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_matrix", rotation_matrix(*self.rotation))

    @classmethod
    def identity(cls, center: tuple[float, float, float] = (0.0, 0.0, 0.0)) -> "RigidTransform":
        return cls(center=center)

    @classmethod
    def from_params(
        cls, params: np.ndarray, center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    ) -> "RigidTransform":
        """Build from a flat ``[tx, ty, tz, rx, ry, rz]`` vector."""
        p = np.asarray(params, dtype=float)
        if p.shape != (6,):
            raise ShapeError(f"params must have shape (6,), got {p.shape}")
        return cls(tuple(p[:3]), tuple(p[3:]), center)

    def params(self) -> np.ndarray:
        """Flat ``[tx, ty, tz, rx, ry, rz]`` parameter vector."""
        return np.concatenate([self.translation, self.rotation])

    @property
    def matrix(self) -> np.ndarray:
        """The 3x3 rotation matrix."""
        return self._matrix

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform world points of shape ``(..., 3)``."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != 3:
            raise ShapeError(f"points must have trailing dimension 3, got {pts.shape}")
        c = np.asarray(self.center)
        t = np.asarray(self.translation)
        return (pts - c) @ self._matrix.T + c + t

    def inverse(self) -> "RigidTransform":
        """Exact inverse transform (as a matrix-backed rigid transform).

        The inverse of ``x -> R(x-c)+c+t`` is ``y -> R^T(y-c')+c'+t'``
        with ``c' = c`` and ``t' = -R^T t`` only when Euler angles
        compose; instead we return a transform whose rotation matrix is
        RT by converting back to Euler angles (always possible for RT of
        a rotation built here).
        """
        RT = self._matrix.T
        # Recover Euler XYZ angles from RT (R = Rz Ry Rx convention).
        ry = np.arcsin(-np.clip(RT[2, 0], -1.0, 1.0))
        if abs(np.cos(ry)) > 1e-9:
            rx = np.arctan2(RT[2, 1], RT[2, 2])
            rz = np.arctan2(RT[1, 0], RT[0, 0])
        else:  # gimbal lock
            rx = np.arctan2(-RT[1, 2], RT[1, 1])
            rz = 0.0
        t = np.asarray(self.translation)
        new_t = -(RT @ t)
        return RigidTransform(tuple(new_t), (float(rx), float(ry), float(rz)), self.center)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform equivalent to applying ``other`` then ``self``.

        Both must share a rotation centre (the registration pipeline keeps
        a single fixed centre).
        """
        if not np.allclose(self.center, other.center):
            raise ShapeError("compose requires a shared rotation centre")
        R = self._matrix @ other._matrix
        ry = np.arcsin(-np.clip(R[2, 0], -1.0, 1.0))
        if abs(np.cos(ry)) > 1e-9:
            rx = np.arctan2(R[2, 1], R[2, 2])
            rz = np.arctan2(R[1, 0], R[0, 0])
        else:
            rx = np.arctan2(-R[1, 2], R[1, 1])
            rz = 0.0
        t = self._matrix @ np.asarray(other.translation) + np.asarray(self.translation)
        return RigidTransform(tuple(t), (float(rx), float(ry), float(rz)), self.center)

    def magnitude(self, radius_mm: float = 80.0) -> float:
        """Scalar size of the transform: |t| + radius * rotation angle.

        Used for convergence reporting; ``radius_mm`` converts rotation
        to an equivalent surface displacement at head radius.
        """
        angle = np.arccos(np.clip((np.trace(self._matrix) - 1.0) / 2.0, -1.0, 1.0))
        return float(np.linalg.norm(self.translation) + radius_mm * angle)
