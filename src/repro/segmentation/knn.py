"""Vectorized k-NN classification.

"This multichannel data set is then segmented with k-NN classification
[Duda & Hart], a standard classification method which computes the type
of tissue present at each voxel by comparing the signal of the voxel to
classify with the signal of previously selected prototype voxels of
known tissue type."

Brute-force distances are computed in voxel chunks against the (small)
prototype set, with per-feature standardization learned from the
prototypes so intensity and millimetre-distance channels are
commensurable. A voxel is labelled as soon as a majority of its ``k``
votes agree; the labels are those of the full vote.

An intraoperative scan is classified only inside a band: the voxels whose
rigidly mapped centre lies within the active surface's reach of the
preoperative brain boundary. Every other voxel keeps the rigidly mapped
preoperative label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.imaging.phantom import Tissue
from repro.imaging.resample import nearest_flat_index, trilinear_sample
from repro.imaging.volume import ImageVolume
from repro.segmentation.atlas import LocalizationModel
from repro.segmentation.prototypes import PrototypeSet
from repro.util import ShapeError, ValidationError


#: Relative spread (of a feature's mean) at or below which ``fit`` treats a
#: channel as flat: 16 machine epsilons, a few ulps.
FLAT_SPREAD_EPS = 16 * np.finfo(float).eps


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

    Attributes
    ----------
    open_share:
        Of the vectors last classified, the share whose first
        ``k // 2 + 1`` neighbours did not agree and so needed the full
        vote. A share that climbs means the prototypes no longer
        separate the classes.
    classified:
        Voxels the last :meth:`segment` ran k-NN on: the band's, or every
        voxel without one.
    prior_only:
        Of the last :meth:`segment`'s voxels outside the band, the count
        per prior label that k-NN never emits (no prototype has it).
    """

    k: int = 5
    chunk: int = 1024
    _train: np.ndarray | None = field(default=None, repr=False)
    _labels: np.ndarray | None = field(default=None, repr=False)
    _mean: np.ndarray | None = field(default=None, repr=False)
    _scale: np.ndarray | None = field(default=None, repr=False)
    open_share: float = field(default=0.0, init=False, repr=False)
    classified: int = field(default=0, init=False, repr=False)
    prior_only: dict[int, int] = field(default_factory=dict, init=False, repr=False)

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
        # A channel whose spread is at the rounding of its mean is flat: a
        # trilinear blend of a constant lands a few ulps either side of it,
        # and dividing by that spread would turn the ulps into O(1) noise.
        scale[scale <= FLAT_SPREAD_EPS * np.abs(self._mean)] = 1.0
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
        c = self._train.shape[1]
        if X.shape[1] != c:
            raise ShapeError(f"feature dimension {X.shape[1]} != fitted dimension {c}")
        rows = np.empty((c + 1, len(X)))
        rows[:c] = X.T
        return self._classify_rows(rows).reshape(lead_shape)

    def _classify_rows(self, rows: np.ndarray) -> np.ndarray:
        """Labels of ``n`` feature vectors held channel-major.

        ``rows`` is a ``(c + 1, n)`` float array the caller gives up: raw
        features in the first ``c`` rows, the last row spare. It is
        standardized in place and the spare row set to ones, so that one
        product per block ranks every prototype:
        ``|x - p|^2 - |x|^2 = -2 x.p + |p|^2`` -- the ``|x|^2`` a row
        shares with all its distances is never formed.

        A label is decided as soon as it cannot change. After
        ``need = k // 2 + 1`` picks that agree, the ``k - need < need``
        votes still out can neither overtake nor tie that class, so the
        full vote would return it; only the rows whose first ``need``
        picks disagree (``open_share`` of them) run the remaining
        passes, the vote count and the nearest-neighbour tie-break.
        """
        train = self._train
        c = train.shape[1]
        rows[:c] -= self._mean[:, None]
        rows[:c] /= self._scale[:, None]
        rows[c] = 1.0
        ranking = np.empty((c + 1, len(train)))
        ranking[:c] = -2.0 * train.T
        ranking[c] = np.sum(train * train, axis=1)
        classes, class_of = np.unique(self._labels, return_inverse=True)
        k = min(self.k, len(train))
        need = k // 2 + 1
        n = rows.shape[1]
        out = np.empty(n, dtype=np.intp)
        n_open = 0
        for start in range(0, n, self.chunk):
            # Distances up to the row constant; exact ties (duplicated
            # prototypes) are equal columns and resolve, pass by pass, to
            # the lowest prototype index. A one-row block is summed here:
            # BLAS's matrix-vector kernel gives equal columns unequal sums.
            block = rows[:, start : start + self.chunk]
            if block.shape[1] > 1:
                d2 = block.T @ ranking
            else:
                d2 = (block * ranking).sum(axis=0)[None, :]
            every = np.arange(len(d2))
            picks = np.empty((need, len(d2)), dtype=np.intp)
            picks[0] = np.argmin(d2, axis=1)
            for nth in range(1, need):
                d2[every, picks[nth - 1]] = np.inf
                picks[nth] = np.argmin(d2, axis=1)
            voted = class_of[picks]
            best = classes[voted[0]]
            undecided = np.flatnonzero((voted[1:] != voted[0]).any(axis=0))
            if undecided.size:
                n_open += undecided.size
                # The full vote, on the compressed remainder. One row of
                # votes per class: reductions run down columns.
                d2 = d2[undecided]
                every = np.arange(len(d2))
                pick = picks[need - 1, undecided]
                votes = np.zeros((len(classes), len(d2)), dtype=np.intp)
                for nth in range(need):
                    votes[voted[nth, undecided], every] += 1
                for nth in range(need, k):
                    d2[every, pick] = np.inf
                    pick = np.argmin(d2, axis=1)
                    votes[class_of[pick], every] += 1
                winner = classes[np.argmax(votes, axis=0)]
                # Ties: prefer the class of the single nearest neighbour.
                tied = (votes == votes.max(axis=0)).sum(axis=0) > 1
                winner[tied] = best[undecided[tied]]
                best[undecided] = winner
            out[start : start + self.chunk] = best
        self.open_share = n_open / n if n else 0.0
        return out

    def segment(
        self,
        image: ImageVolume,
        localization: LocalizationModel,
        transform=None,
        band: np.ndarray | None = None,
        prior: ImageVolume | None = None,
    ) -> ImageVolume:
        """Classify an intraoperative scan's voxels.

        Each voxel centre is mapped once through ``transform`` (scan
        points -> the localization model's frame). ``band`` is a boolean
        mask on the grid of ``prior``, the preoperative label volume:
        k-NN runs only on the voxels whose mapped centre rounds to a band
        voxel, and every other voxel takes the ``prior`` label it rounds
        to (AIR off that grid). Without a band every voxel is in it. The
        features of a classified voxel (intensity + localization
        channels at the mapped centre) are those of
        ``build_features(image, localization, centres, transform)``, so
        its label is that of :meth:`predict` on them.
        """
        if not self.is_fitted:
            raise ValidationError("classifier is not fitted")
        c = self._train.shape[1]
        if 1 + len(localization.channels) != c:
            raise ShapeError(
                f"intensity + {len(localization.channels)} localization channels "
                f"!= fitted dimension {c}"
            )
        if (band is None) != (prior is None):
            raise ValidationError("band and prior are given together or not at all")
        if band is not None and np.shape(band) != prior.shape:
            raise ShapeError(f"band shape {np.shape(band)} != prior shape {prior.shape}")
        centres = image.voxel_centers()
        mapped = centres if transform is None else transform.apply(centres)
        centres, mapped = centres.reshape(-1, 3), mapped.reshape(-1, 3)
        labels = np.empty(len(centres), dtype=np.int16)
        inside, n = slice(None), len(centres)
        self.prior_only = {}
        if band is not None:
            flat, on_grid = nearest_flat_index(prior, mapped)
            in_band = np.asarray(band, dtype=bool).ravel().take(flat)
            in_band &= on_grid
            inside = np.flatnonzero(in_band)
            n = inside.size
            outside = np.flatnonzero(~in_band)
            kept = np.where(
                on_grid[outside], prior.data.ravel().take(flat[outside]), int(Tissue.AIR)
            )
            labels[outside] = kept
            never = kept[~np.isin(kept, np.unique(self._labels))]
            self.prior_only = {
                int(v): int(count) for v, count in zip(*np.unique(never, return_counts=True))
            }
        rows = np.empty((c + 1, n))
        rows[0] = trilinear_sample(image, centres[inside], fill_value=0.0)
        rows[1:c] = localization.sample_rows(mapped[inside])
        labels[inside] = self._classify_rows(rows)
        self.classified = n
        return ImageVolume(labels.reshape(image.shape), image.spacing, image.origin)
