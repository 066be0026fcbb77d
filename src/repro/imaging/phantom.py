"""Synthetic digital brain phantom with ground-truth deformation.

The paper evaluates on two clinical neurosurgery cases imaged in an
intraoperative 0.5 T MR scanner. That data is not available, so this
module builds the closest synthetic equivalent that exercises the same
code path:

* a multi-tissue labeled head volume (skin, skull, CSF, brain,
  lateral ventricles, cerebral falx, tumor) built from analytic
  ellipsoids — matching the anatomy the paper's model discusses
  (including the falx/ventricle structures it names as the limitation of
  the homogeneous model);
* a T1-like MR intensity synthesis with Rician noise and a bias field
  (the paper's "intrinsic MR scanner intensity variability");
* an analytic **brain-shift** deformation (surface sinking under a
  craniotomy, as in the paper's Figs. 4–5) with optional **tumor
  resection**, applied to produce the second intraoperative scan;
* the exact forward and inverse ground-truth displacement fields, so
  that — unlike with clinical data — registration error is quantifiable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from repro.imaging.noise import add_rician_noise, bias_field
from repro.imaging.resample import invert_displacement_field, warp_volume
from repro.imaging.volume import ImageVolume
from repro.util import ValidationError, default_rng
from repro.util.rng import SeedLike


class Tissue(IntEnum):
    """Tissue labels used throughout the pipeline."""

    AIR = 0
    SKIN = 1
    SKULL = 2
    CSF = 3
    BRAIN = 4
    VENTRICLE = 5
    FALX = 6
    TUMOR = 7
    RESECTION = 8  # post-resection cavity (intraoperative scans only)


#: T1-weighted-like mean intensity per tissue class, in arbitrary units.
T1_INTENSITY: dict[Tissue, float] = {
    Tissue.AIR: 2.0,
    Tissue.SKIN: 225.0,
    Tissue.SKULL: 35.0,
    Tissue.CSF: 55.0,
    Tissue.BRAIN: 130.0,
    Tissue.VENTRICLE: 45.0,
    Tissue.FALX: 95.0,
    Tissue.TUMOR: 175.0,
    Tissue.RESECTION: 15.0,
}


@dataclass
class BrainPhantom:
    """Parametric head geometry, all lengths in millimetres.

    The head is centred in the volume. Semi-axis triples are ``(x, y, z)``.
    """

    head_semi_axes: tuple[float, float, float] = (70.0, 85.0, 60.0)
    skull_thickness: float = 5.0
    csf_thickness: float = 4.0
    scalp_thickness: float = 6.0
    ventricle_semi_axes: tuple[float, float, float] = (9.0, 22.0, 10.0)
    ventricle_offset_x: float = 13.0
    falx_thickness: float = 2.5
    falx_depth_fraction: float = 0.55
    tumor_radius: float = 12.0
    tumor_center_offset: tuple[float, float, float] = (28.0, 8.0, 18.0)

    def __post_init__(self) -> None:
        if min(self.head_semi_axes) <= (
            self.scalp_thickness + self.skull_thickness + self.csf_thickness
        ):
            raise ValidationError("head semi-axes too small for the shell thicknesses")

    # -- geometry helpers --------------------------------------------------

    def _ellipsoid_level(self, coords: np.ndarray, semi_axes: np.ndarray) -> np.ndarray:
        """Level function (<=1 inside) of an ellipsoid centred at origin."""
        return np.sum((coords / semi_axes) ** 2, axis=-1)

    def label_volume(
        self,
        shape: tuple[int, int, int],
        spacing: tuple[float, float, float] = (2.5, 2.5, 2.5),
    ) -> ImageVolume:
        """Rasterize the phantom into a label volume of the given grid."""
        sp = np.asarray(spacing, dtype=float)
        extent = sp * np.asarray(shape)
        center = extent / 2.0
        origin = tuple((sp / 2.0) - center)  # head centre at world (0,0,0)
        vol = ImageVolume.zeros(shape, spacing, origin, dtype=np.uint8)
        coords = vol.voxel_centers()

        head = np.asarray(self.head_semi_axes)
        skull_outer = head - self.scalp_thickness
        skull_inner = skull_outer - self.skull_thickness
        brain_outer = skull_inner - self.csf_thickness

        labels = np.full(shape, int(Tissue.AIR), dtype=np.uint8)
        labels[self._ellipsoid_level(coords, head) <= 1.0] = int(Tissue.SKIN)
        labels[self._ellipsoid_level(coords, skull_outer) <= 1.0] = int(Tissue.SKULL)
        labels[self._ellipsoid_level(coords, skull_inner) <= 1.0] = int(Tissue.CSF)
        brain_mask = self._ellipsoid_level(coords, brain_outer) <= 1.0
        labels[brain_mask] = int(Tissue.BRAIN)

        # Cerebral falx: a stiff sagittal membrane between the hemispheres,
        # descending from the top of the brain partway down.
        # The falx occupies the upper portion of the midplane, descending
        # falx_depth_fraction of the way down the brain.
        falx = (
            brain_mask
            & (np.abs(coords[..., 0]) <= self.falx_thickness / 2.0)
            & (coords[..., 2] >= (1.0 - 2.0 * self.falx_depth_fraction) * brain_outer[2])
        )
        labels[falx] = int(Tissue.FALX)

        # Lateral ventricles: paired ellipsoids around the midline.
        vent = np.asarray(self.ventricle_semi_axes)
        for sign in (-1.0, 1.0):
            offset = coords - np.array([sign * self.ventricle_offset_x, 0.0, 0.0])
            labels[(self._ellipsoid_level(offset, vent) <= 1.0) & brain_mask] = int(
                Tissue.VENTRICLE
            )

        # Tumor: a sphere in the right hemisphere near the surface.
        tc = np.asarray(self.tumor_center_offset)
        dist2 = np.sum((coords - tc) ** 2, axis=-1)
        labels[(dist2 <= self.tumor_radius**2) & brain_mask] = int(Tissue.TUMOR)

        return ImageVolume(labels, spacing, origin)

    def craniotomy_center(self) -> np.ndarray:
        """World point on the skull surface directly above the tumor.

        The craniotomy is placed along the ray from the head centre
        through the tumor centre, on the outer head surface.
        """
        tc = np.asarray(self.tumor_center_offset, dtype=float)
        head = np.asarray(self.head_semi_axes)
        level = np.sqrt(np.sum((tc / head) ** 2))
        if level == 0:
            raise ValidationError("tumor centred at origin; cannot place craniotomy")
        return tc / level


def synthesize_mri(
    labels: ImageVolume,
    noise_sigma: float = 4.0,
    bias_amplitude: float = 0.05,
    seed: SeedLike = None,
) -> ImageVolume:
    """Render a T1-like MR image from a label volume.

    Per-class mean intensities, multiplied by a smooth coil bias field,
    with Rician magnitude noise.
    """
    rng = default_rng(seed)
    intensity = np.zeros(labels.shape, dtype=float)
    for tissue, mean in T1_INTENSITY.items():
        intensity[labels.data == int(tissue)] = mean
    image = labels.copy(intensity)
    if bias_amplitude > 0:
        image = image.copy(image.data * bias_field(labels.shape, bias_amplitude, rng))
    if noise_sigma > 0:
        image = add_rician_noise(image, noise_sigma, rng)
    return image


def brain_shift_field(
    labels: ImageVolume,
    craniotomy_center: np.ndarray,
    magnitude_mm: float = 6.0,
    falloff_mm: float = 35.0,
    taper_mm: float = 6.0,
) -> np.ndarray:
    """Analytic forward brain-shift displacement field on the label grid.

    The brain surface sinks *away from the craniotomy opening* (inward,
    along the inward surface normal at the opening), with a Gaussian
    falloff from the opening — the deformation pattern of the paper's
    Figs. 4–5 (surface sinking, air gap under the skull). Skull, scalp and
    air do not move; the field tapers smoothly to zero near the brain
    boundary away from the opening so the skull base acts as a fixed
    boundary.

    Returns the displacement in mm, shape ``(*labels.shape, 3)``.
    """
    coords = labels.voxel_centers()
    c = np.asarray(craniotomy_center, dtype=float)
    inward = -c / np.linalg.norm(c)

    dist2 = np.sum((coords - c) ** 2, axis=-1)
    amplitude = magnitude_mm * np.exp(-dist2 / (2.0 * falloff_mm**2))

    movable = np.isin(
        labels.data,
        [int(Tissue.BRAIN), int(Tissue.VENTRICLE), int(Tissue.FALX), int(Tissue.TUMOR), int(Tissue.CSF)],
    )
    # Smooth taper: weight rises from 0 at the movable-region boundary to 1
    # at depth >= taper_mm, so the field is continuous at the skull.
    from repro.imaging.distance import saturated_distance_transform

    depth = saturated_distance_transform(~movable, cap=taper_mm, spacing=labels.spacing)
    weight = np.clip(depth / taper_mm, 0.0, 1.0)
    # The opening region itself is free to move fully: remove the taper in
    # a cone around the craniotomy direction near the surface.
    field = (amplitude * weight)[..., None] * inward
    return field


@dataclass
class NeurosurgeryCase:
    """A synthetic two-scan neurosurgery case with ground truth.

    Attributes
    ----------
    preop_labels, preop_mri:
        The "first intraoperative scan" (reference configuration) and its
        manual segmentation (the paper uses the segmented first scan as a
        patient-specific atlas).
    intraop_labels, intraop_mri:
        The later intraoperative scan, after brain shift and (optionally)
        tumor resection.
    true_forward_mm / true_inverse_mm:
        Ground-truth displacement fields on the preop grid (mm): forward
        maps material points of scan 1 to scan 2; inverse is the
        pull-back used to synthesize scan 2.
    """

    phantom: BrainPhantom
    preop_labels: ImageVolume
    preop_mri: ImageVolume
    intraop_labels: ImageVolume
    intraop_mri: ImageVolume
    true_forward_mm: np.ndarray
    true_inverse_mm: np.ndarray
    craniotomy_center: np.ndarray
    shift_mm: float
    resected: bool
    brain_labels: tuple[int, ...] = field(
        default=(int(Tissue.BRAIN), int(Tissue.VENTRICLE), int(Tissue.FALX), int(Tissue.TUMOR))
    )

    def brain_mask(self, labels: ImageVolume | None = None) -> np.ndarray:
        """Boolean mask of brain tissue (brain + ventricles + falx + tumor)."""
        lab = self.preop_labels if labels is None else labels
        return np.isin(lab.data, self.brain_labels)


def make_neurosurgery_case(
    shape: tuple[int, int, int] = (64, 64, 48),
    spacing: tuple[float, float, float] | None = None,
    shift_mm: float = 6.0,
    resection: bool = True,
    noise_sigma: float = 4.0,
    bias_amplitude: float = 0.05,
    phantom: BrainPhantom | None = None,
    seed: SeedLike = 0,
) -> NeurosurgeryCase:
    """Build a complete synthetic neurosurgery case.

    Parameters
    ----------
    shape:
        Grid size. Spacing defaults to whatever makes the standard head
        phantom fill ~90% of the volume.
    shift_mm:
        Peak brain-shift magnitude (paper cases show ~5-15 mm sinking).
    resection:
        Carve the (shifted) tumor out of the intraoperative scan,
        replacing it with a dark resection cavity, as in the paper's
        final scans ("loss of tissue due to tumor resection").
    seed:
        Seeds both noise realizations (different per scan, like a real
        scanner).
    """
    rng = default_rng(seed)
    ph = phantom if phantom is not None else BrainPhantom()
    if spacing is None:
        head = np.asarray(ph.head_semi_axes)
        spacing = tuple(float(s) for s in (2.0 * head * 1.12) / np.asarray(shape))
    labels1 = ph.label_volume(shape, spacing)
    mri1 = synthesize_mri(labels1, noise_sigma, bias_amplitude, rng)

    center = ph.craniotomy_center()
    forward = brain_shift_field(labels1, center, magnitude_mm=shift_mm)
    inverse = invert_displacement_field(forward, labels1.spacing)

    labels2 = warp_volume(labels1, inverse, fill_value=int(Tissue.AIR), nearest=True)
    labels2 = ImageVolume(labels2.data.astype(np.uint8), labels2.spacing, labels2.origin)
    # The vacated space under the skull (where the brain sank away from
    # the opening) fills with air/fluid: voxels that were brain in scan 1
    # but map outside the shifted brain become CSF-like gap. The nearest
    # warp already yields labels of the source point, so the gap consists
    # of voxels whose source point stayed brain; approximate the gap by
    # re-labelling former-brain voxels that the forward map vacated.
    if resection:
        labels2.data[labels2.data == int(Tissue.TUMOR)] = int(Tissue.RESECTION)
    mri2 = synthesize_mri(labels2, noise_sigma, bias_amplitude, rng)

    return NeurosurgeryCase(
        phantom=ph,
        preop_labels=labels1,
        preop_mri=mri1,
        intraop_labels=labels2,
        intraop_mri=mri2,
        true_forward_mm=forward,
        true_inverse_mm=inverse,
        craniotomy_center=center,
        shift_mm=shift_mm,
        resected=resection,
    )


def _phantom_case(shape, shift, seed, index, total):
    """Deterministic phantom for scan ``index`` of a ``total``-scan session.

    Brain shift grows linearly over the procedure (scan ``total - 1``
    reaches the full ``shift``); the noise seed varies per scan like a
    real scanner. For a single-scan session this is exactly the
    original ``make_neurosurgery_case(shape, shift, seed)`` call, so
    inputs regenerated from checkpointed app metadata are bit-identical
    to the originals.
    """
    fraction = (index + 1) / max(total, 1)
    return make_neurosurgery_case(
        shape=tuple(shape), shift_mm=shift * fraction, seed=seed + index
    )
