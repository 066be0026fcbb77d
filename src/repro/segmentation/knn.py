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
    chunk: int = 1024
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
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
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
        classes, class_of = np.unique(self._labels, return_inverse=True)
        k = min(self.k, train.shape[0])
        for start in range(0, len(X), self.chunk):
            block = X[start : start + self.chunk]
            # Squared Euclidean distances via the expansion trick, built
            # in place: one chunk x n_prototypes temporary, not three.
            d2 = (-2.0 * block) @ train.T
            d2 += np.sum(block * block, axis=1)[:, None]
            d2 += train_sq[None, :]
            # k passes of argmin, each masking its pick: on a block this
            # narrow that beats a partial sort, and exact distance ties
            # resolve to the lowest prototype index.
            rows = np.arange(len(block))
            # One row of votes per class: reductions run down columns.
            votes = np.zeros((len(classes), len(block)), dtype=np.intp)
            for nth in range(k):
                pick = np.argmin(d2, axis=1)
                if nth == 0:
                    nearest = pick
                votes[class_of[pick], rows] += 1
                d2[rows, pick] = np.inf
            best = classes[np.argmax(votes, axis=0)]
            # Ties: prefer the class of the single nearest neighbour.
            tied = (votes == votes.max(axis=0)).sum(axis=0) > 1
            if np.any(tied):
                best[tied] = self._labels[nearest[tied]]
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
