"""Vectorized k-NN classification.

"This multichannel data set is then segmented with k-NN classification
[Duda & Hart], a standard classification method which computes the type
of tissue present at each voxel by comparing the signal of the voxel to
classify with the signal of previously selected prototype voxels of
known tissue type."

Brute-force distances are computed in voxel chunks against the (small)
prototype set, with per-feature standardization learned from the
prototypes so intensity and millimetre-distance channels are
commensurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.imaging.volume import ImageVolume
from repro.segmentation.atlas import LocalizationModel
from repro.segmentation.prototypes import PrototypeSet, build_features
from repro.util import ShapeError, ValidationError


@dataclass
class KNNClassifier:
    """k-nearest-neighbour classifier over standardized features.

    Parameters
    ----------
    k:
        Number of neighbours; ties broken toward the nearest neighbour's
        class.
    chunk:
        Number of query vectors classified per vectorized block (bounds
        the ``chunk x n_prototypes`` distance matrix, the largest
        temporary of the image stages).
    """

    k: int = 5
    chunk: int = 4096
    _train: np.ndarray | None = field(default=None, repr=False)
    _labels: np.ndarray | None = field(default=None, repr=False)
    _mean: np.ndarray | None = field(default=None, repr=False)
    _scale: np.ndarray | None = field(default=None, repr=False)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "KNNClassifier":
        """Store prototypes and learn per-feature standardization."""
        X = np.asarray(features, dtype=float)
        y = np.asarray(labels)
        if X.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {X.shape}")
        if len(X) != len(y):
            raise ShapeError(f"{len(X)} feature rows but {len(y)} labels")
        if len(X) < self.k:
            raise ValidationError(f"need at least k={self.k} prototypes, got {len(X)}")
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        self._train = (X - self._mean) / scale
        self._labels = y.astype(np.intp)
        return self

    def fit_prototypes(self, prototypes: PrototypeSet) -> "KNNClassifier":
        return self.fit(prototypes.features, prototypes.labels)

    @property
    def is_fitted(self) -> bool:
        return self._train is not None

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Classify feature vectors of shape ``(..., c)``; returns labels."""
        if not self.is_fitted:
            raise ValidationError("classifier is not fitted")
        X = np.asarray(features, dtype=float)
        lead_shape = X.shape[:-1]
        X = X.reshape(-1, X.shape[-1])
        if X.shape[1] != self._train.shape[1]:
            raise ShapeError(
                f"feature dimension {X.shape[1]} != fitted dimension {self._train.shape[1]}"
            )
        X = (X - self._mean) / self._scale
        out = np.empty(len(X), dtype=np.intp)
        train = self._train
        train_sq = np.sum(train * train, axis=1)
        classes = np.unique(self._labels)
        onehot = (self._labels[:, None] == classes[None, :]).astype(np.float64)
        for start in range(0, len(X), self.chunk):
            block = X[start : start + self.chunk]
            # Squared Euclidean distances via the expansion trick, built
            # in place: one chunk x n_prototypes temporary, not three.
            d2 = (-2.0 * block) @ train.T
            d2 += np.sum(block * block, axis=1)[:, None]
            d2 += train_sq[None, :]
            k = min(self.k, train.shape[0])
            nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
            votes = onehot[nearest].sum(axis=1)  # (chunk, n_classes)
            # Ties: prefer the class of the single nearest neighbour.
            best = classes[np.argmax(votes, axis=1)]
            top = np.max(votes, axis=1)
            tied = (votes == top[:, None]).sum(axis=1) > 1
            if np.any(tied):
                row_d2 = d2[tied]
                nn = np.argmin(row_d2, axis=1)
                best[tied] = self._labels[nn]
            out[start : start + self.chunk] = best
        return out.reshape(lead_shape)

    def segment(
        self,
        image: ImageVolume,
        localization: LocalizationModel,
        transform=None,
    ) -> ImageVolume:
        """Classify every voxel of an intraoperative scan.

        Builds the multichannel feature volume (intensity + rigidly
        aligned localization channels) and k-NN labels it.
        """
        feats = build_features(
            image, localization, image.voxel_centers(), transform=transform
        )
        labels = self.predict(feats)
        return ImageVolume(labels.astype(np.int16), image.spacing, image.origin)
