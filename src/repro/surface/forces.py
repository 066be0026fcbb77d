"""External force fields driving the active surface.

Two families:

* :class:`DistanceForceField` — attraction to the boundary of a target
  segmentation: the potential is (half) the squared signed distance to
  the target surface, so the force ``-phi * grad(phi)`` vanishes exactly
  on the boundary and points toward it from both sides. This is the
  robust pipeline configuration: the intraoperative k-NN segmentation
  "constitutes a reliable target for the biomechanical simulation".

* :class:`GradientForceField` — classic edge attraction on raw images:
  the potential is a decreasing function of the smoothed gradient
  magnitude, optionally gated by a gray-level prior (the paper's
  robustness ingredient), so the surface is pulled toward strong edges
  of the expected intensity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imaging.distance import signed_distance
from repro.imaging.filters import gaussian_smooth, gradient_magnitude
from repro.imaging.resample import trilinear_sample, trilinear_sample_many
from repro.imaging.volume import ImageVolume
from repro.util import check_volume_like


def _gradient_volumes(potential: ImageVolume) -> list[ImageVolume]:
    """One volume per axis of :func:`image_gradient`, straight from
    ``np.gradient``'s per-axis arrays (no stacked ``(..., 3)`` copy)."""
    grads = np.gradient(potential.data.astype(float), *potential.spacing, edge_order=1)
    return [
        ImageVolume(np.ascontiguousarray(g), potential.spacing, potential.origin)
        for g in grads
    ]


@dataclass
class DistanceForceField:
    """Force field ``F(x) = -phi(x) grad(phi)(x)`` toward a target boundary.

    ``phi`` is the (saturated) signed distance of the target mask, so
    ``|F|`` grows linearly with distance up to the cap and is zero on
    the target surface.
    """

    phi: ImageVolume
    grad_phi: list[ImageVolume]

    @classmethod
    def from_mask(
        cls, mask: np.ndarray, reference: ImageVolume, cap_mm: float = 20.0
    ) -> "DistanceForceField":
        mask = check_volume_like(mask, "mask").astype(bool)
        phi = signed_distance(mask, cap_mm, reference.spacing)
        phi_vol = reference.copy(phi)
        return cls(phi=phi_vol, grad_phi=_gradient_volumes(phi_vol))

    def __call__(self, points_world: np.ndarray) -> np.ndarray:
        """Force vectors (mm units of potential per mm) at world points."""
        phi, *grad = trilinear_sample_many([self.phi, *self.grad_phi], points_world)
        return -phi[..., None] * np.stack(grad, axis=-1)

    def residual(self, points_world: np.ndarray) -> np.ndarray:
        """|phi| at the points: distance-to-target convergence measure."""
        return np.abs(trilinear_sample(self.phi, points_world, fill_value=0.0))


@dataclass
class GradientForceField:
    """Edge-attraction force with an optional gray-level prior.

    The potential is ``P = -|grad(G_sigma * I)| * w(I)`` where the prior
    weight ``w`` is a Gaussian in intensity around the expected gray
    level of the boundary being tracked; the force is ``-grad(P)``.
    """

    potential: ImageVolume
    grad_potential: list[ImageVolume]

    @classmethod
    def from_image(
        cls,
        image: ImageVolume,
        smoothing_mm: float = 2.0,
        expected_gray: float | None = None,
        gray_tolerance: float = 30.0,
    ) -> "GradientForceField":
        smoothed = gaussian_smooth(image, smoothing_mm)
        edge = gradient_magnitude(smoothed).data
        if expected_gray is not None:
            weight = np.exp(
                -0.5 * ((smoothed.data - expected_gray) / gray_tolerance) ** 2
            )
            edge = edge * weight
        potential = image.copy(-edge)
        return cls(potential=potential, grad_potential=_gradient_volumes(potential))

    def __call__(self, points_world: np.ndarray) -> np.ndarray:
        return -np.stack(trilinear_sample_many(self.grad_potential, points_world), axis=-1)

    def residual(self, points_world: np.ndarray) -> np.ndarray:
        """Negated potential at the points (high = far from an edge)."""
        return -trilinear_sample(self.potential, points_world, fill_value=0.0)


def distance_force_from_mask(
    mask: np.ndarray, reference: ImageVolume, cap_mm: float = 20.0
) -> DistanceForceField:
    """Convenience wrapper: :meth:`DistanceForceField.from_mask`."""
    return DistanceForceField.from_mask(mask, reference, cap_mm)
