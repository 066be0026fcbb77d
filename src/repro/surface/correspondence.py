"""Two-phase surface correspondence detection.

The displacement boundary condition the biomechanical model needs is
the *change* of the brain surface between the two scans — not the
offset between the (coarse) mesh boundary and either scan's voxelized
boundary. Estimating it in one evolution conflates the two, so the
pipeline runs two:

1. **Snap**: project the mesh boundary onto the *reference* scan's brain
   boundary. This absorbs the mesh-discretization offset and
   establishes where each surface vertex sits on the actual scan-1
   surface. It is a projection, not an evolution: the membrane's
   internal force penalizes the vertex-by-vertex displacement from the
   rest shape — exactly the offset the snap exists to absorb — so the
   distance-force snap runs without it and each vertex descends
   ``phi^2 / 2`` on its own until it sits on the zero level set.
2. **Track**: the paper's active surface. Evolve the elastic membrane
   from the snapped positions onto the *target* (later intraoperative)
   scan's brain boundary, with the displacement regularized relative to
   the snapped shape.

The correspondence displacement for each vertex is
``tracked - snapped``, which is what gets imposed on the volumetric
model's surface nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imaging.volume import ImageVolume
from repro.mesh.surface import TriangleSurface
from repro.surface.evolve import ActiveSurfaceResult, evolve_surface
from repro.surface.forces import DistanceForceField, GradientForceField
from repro.util import ValidationError


@dataclass
class CorrespondenceResult:
    """Surface correspondence between two scans.

    Attributes
    ----------
    displacements:
        ``(n_vertices, 3)`` scan-1 -> scan-2 surface displacement (mm).
    snapped / tracked:
        The two active-surface phases' results.
    """

    displacements: np.ndarray
    snapped: ActiveSurfaceResult
    tracked: ActiveSurfaceResult

    @property
    def magnitudes(self) -> np.ndarray:
        return np.linalg.norm(self.displacements, axis=1)


def snap_surface(
    surface: TriangleSurface,
    reference_mask: np.ndarray,
    reference: ImageVolume,
    cap_mm: float = 20.0,
    iterations: int = 250,
    step_size: float = 0.35,
    tolerance_mm: float = 5e-3,
    field: DistanceForceField | None = None,
) -> ActiveSurfaceResult:
    """Phase 1 alone: move each boundary vertex onto the reference mask.

    Every vertex follows ``x <- x - step_size * phi * grad(phi)`` (the
    distance force, clamped as in :func:`evolve_surface`) with no
    membrane force between vertices, a contraction onto the mask's zero
    level set that reaches the ``tolerance_mm`` stop in a handful of
    steps. Projected vertices can coincide, so the snapped positions are
    per-vertex rest positions for the track phase, not a mesh to render
    or measure areas on.

    The snap depends only on the surface and the *reference* scan, never
    on the intraoperative target, so the pipeline runs it once in the
    preoperative phase and hands the result to every
    :func:`surface_correspondence` call through ``snapped=``.

    ``field`` is the mask's distance force field at ``cap_mm``, when the
    caller has built it already (the pipeline keeps its signed distance
    for the classification band); the caller vouches that it matches.
    """
    snap_field = field
    if snap_field is None:
        snap_field = DistanceForceField.from_mask(reference_mask, reference, cap_mm)
    return evolve_surface(
        surface,
        snap_field,
        iterations=iterations,
        step_size=step_size,
        smoothing=0.0,
        tolerance_mm=tolerance_mm,
    )


def surface_correspondence(
    surface: TriangleSurface,
    reference_mask: np.ndarray,
    target_mask: np.ndarray,
    reference: ImageVolume,
    cap_mm: float = 20.0,
    iterations: int = 250,
    step_size: float = 0.35,
    smoothing: float = 0.4,
    tolerance_mm: float = 5e-3,
    force: str = "distance",
    reference_image: ImageVolume | None = None,
    target_image: ImageVolume | None = None,
    expected_gray: float | None = None,
    snapped: ActiveSurfaceResult | None = None,
) -> CorrespondenceResult:
    """Detect scan-1 -> scan-2 surface correspondences.

    Parameters
    ----------
    surface:
        Brain boundary surface extracted from the volumetric mesh.
    reference_mask / target_mask:
        Brain masks of the first and the later intraoperative scan
        (typically the manual/preop segmentation and the k-NN
        intraoperative segmentation).
    reference:
        Volume carrying the grid geometry of the masks.
    smoothing:
        Membrane elasticity weight of the track phase (and of the
        ``"gradient"`` snap); the distance-force snap has no membrane.
    force:
        ``"distance"`` (default) drives the membrane with the signed
        distance of the segmentation masks — the robust pipeline
        configuration. ``"gradient"`` uses raw-image edge forces with an
        optional gray-level prior (the paper's literal description:
        "forces ... a decreasing function of the data gradients ...
        prior knowledge about the expected gray level"); requires
        ``reference_image`` and ``target_image``.
    expected_gray:
        Gray-level prior for the gradient force (e.g. the brain-class
        mean intensity).
    snapped:
        A phase-1 result computed earlier for this surface, reference
        and evolution parameters (see :func:`snap_surface`); phase 1 is
        skipped and the track phase starts from it. The caller vouches
        that it matches — nothing here can check.
    """
    if force not in ("distance", "gradient"):
        raise ValidationError(f"force must be 'distance' or 'gradient', got {force!r}")
    evolution = dict(
        iterations=iterations,
        step_size=step_size,
        smoothing=smoothing,
        tolerance_mm=tolerance_mm,
    )
    if force == "gradient":
        if reference_image is None or target_image is None:
            raise ValidationError(
                "gradient force requires reference_image and target_image"
            )
        if snapped is None:
            # An edge potential has no zero set to project onto: this
            # snap keeps the membrane.
            snap_field = GradientForceField.from_image(
                reference_image, expected_gray=expected_gray
            )
            snapped = evolve_surface(surface, snap_field, **evolution)
        track_field = GradientForceField.from_image(
            target_image, expected_gray=expected_gray
        )
    else:
        if snapped is None:
            snapped = snap_surface(
                surface,
                reference_mask,
                reference,
                cap_mm,
                iterations=iterations,
                step_size=step_size,
                tolerance_mm=tolerance_mm,
            )
        track_field = DistanceForceField.from_mask(target_mask, reference, cap_mm)
    tracked = evolve_surface(
        surface,
        track_field,
        **evolution,
        initial_positions=snapped.positions,
        rest_positions=snapped.positions,
    )
    return CorrespondenceResult(
        displacements=tracked.positions - snapped.positions,
        snapped=snapped,
        tracked=tracked,
    )
