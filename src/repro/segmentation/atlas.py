"""Patient-specific spatial localization models.

"Each segmented tissue class is converted into an explicit 3D volumetric
spatially varying model of the location of that tissue class, by
computing a saturated distance transform of the tissue class" — the
preoperative data acting as a patient-specific atlas. At classification
time these distance channels give the k-NN automatic local context,
which is what makes the intraoperative segmentation robust.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imaging.distance import saturated_distance_transform
from repro.imaging.resample import trilinear_sample_many
from repro.imaging.volume import ImageVolume
from repro.registration.transform import RigidTransform
from repro.util import ValidationError


@dataclass
class LocalizationModel:
    """Saturated-distance localization channels for a set of tissue classes.

    Attributes
    ----------
    classes:
        Tissue label values, in channel order.
    channels:
        One distance volume per class, on the preoperative grid.
    cap_mm:
        Saturation radius of the distance transform.
    absent:
        Indices of the channels whose class is absent from the labels:
        flat at ``cap_mm``, so sampling fills their rows with the cap
        instead of gathering a constant volume.
    """

    classes: tuple[int, ...]
    channels: list[ImageVolume]
    cap_mm: float
    absent: tuple[int, ...] = ()

    @classmethod
    def from_labels(
        cls,
        labels: ImageVolume,
        classes: tuple[int, ...],
        cap_mm: float = 15.0,
    ) -> "LocalizationModel":
        """Build the model from a preoperative label volume.

        Classes absent from the volume get a flat channel at the cap
        (maximally uninformative), mirroring how an absent structure
        behaves in the saturated transform.
        """
        if not classes:
            raise ValidationError("at least one class is required")
        channels = []
        absent = []
        for index, cls_value in enumerate(classes):
            mask = labels.data == cls_value
            if mask.any():
                dist = saturated_distance_transform(mask, cap_mm, labels.spacing)
            else:
                dist = np.full(labels.shape, cap_mm, dtype=float)
                absent.append(index)
            channels.append(labels.copy(dist))
        return cls(tuple(classes), channels, cap_mm, tuple(absent))

    def sample_rows(
        self, points_world: np.ndarray, transform: RigidTransform | None = None
    ) -> np.ndarray:
        """Sample all channels at world points, one row per channel.

        ``transform`` maps target-grid points into the preoperative frame
        (the output of :func:`repro.registration.register_rigid`). Points
        falling outside the model are assigned the cap distance, and so
        is every point of an absent class's channel.

        Returns ``(n_classes, ...)`` -- channel-major, the layout the
        k-NN block loop reads.
        """
        pts = np.asarray(points_world, dtype=float)
        if transform is not None:
            pts = transform.apply(pts)
        present = [i for i in range(len(self.channels)) if i not in self.absent]
        rows = np.full((len(self.channels), *pts.shape[:-1]), self.cap_mm)
        if present:
            rows[present] = trilinear_sample_many(
                [self.channels[i] for i in present], pts, fill_values=self.cap_mm
            )
        return rows

    def sample_at(
        self, points_world: np.ndarray, transform: RigidTransform | None = None
    ) -> np.ndarray:
        """:meth:`sample_rows` point-major: returns ``(..., n_classes)``."""
        return np.stack(self.sample_rows(points_world, transform), axis=-1)

    def resample_onto(
        self, reference: ImageVolume, transform: RigidTransform | None = None
    ) -> np.ndarray:
        """All channels on a target grid: shape ``(*reference.shape, n_classes)``."""
        return self.sample_at(reference.voxel_centers(), transform)
