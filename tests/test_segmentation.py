"""Tests for localization models, prototypes, and k-NN classification."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging.phantom import Tissue
from repro.imaging.volume import ImageVolume
from repro.segmentation.atlas import LocalizationModel
from repro.segmentation.knn import KNNClassifier
from repro.segmentation.prototypes import build_features, select_prototypes
from repro.segmentation.quality import confusion_matrix, dice_per_class
from repro.util import ShapeError, ValidationError

CLASSES = (
    int(Tissue.AIR),
    int(Tissue.SKIN),
    int(Tissue.SKULL),
    int(Tissue.CSF),
    int(Tissue.BRAIN),
    int(Tissue.VENTRICLE),
)


@pytest.fixture(scope="module")
def localization(small_case_module):
    return LocalizationModel.from_labels(small_case_module.preop_labels, CLASSES, cap_mm=12.0)


@pytest.fixture(scope="module")
def small_case_module():
    from repro.imaging.phantom import make_neurosurgery_case

    return make_neurosurgery_case(shape=(32, 32, 24), shift_mm=5.0, seed=42)


class TestLocalizationModel:
    def test_channel_count_and_order(self, localization):
        assert localization.classes == CLASSES
        assert len(localization.channels) == len(CLASSES)

    def test_distance_zero_on_own_class(self, small_case_module, localization):
        labels = small_case_module.preop_labels
        brain_idx = CLASSES.index(int(Tissue.BRAIN))
        channel = localization.channels[brain_idx].data
        assert np.all(channel[labels.data == int(Tissue.BRAIN)] == 0.0)

    def test_distance_positive_elsewhere(self, small_case_module, localization):
        labels = small_case_module.preop_labels
        brain_idx = CLASSES.index(int(Tissue.BRAIN))
        channel = localization.channels[brain_idx].data
        far = labels.data == int(Tissue.AIR)
        assert channel[far].min() > 0

    def test_absent_class_flat_cap(self, small_case_module):
        model = LocalizationModel.from_labels(
            small_case_module.preop_labels, (99,), cap_mm=9.0
        )
        assert np.all(model.channels[0].data == 9.0)

    def test_sample_outside_returns_cap(self, localization):
        far = np.array([[1e4, 1e4, 1e4]])
        assert np.all(localization.sample_at(far) == localization.cap_mm)

    def test_requires_classes(self, small_case_module):
        with pytest.raises(ValidationError):
            LocalizationModel.from_labels(small_case_module.preop_labels, ())


class TestPrototypes:
    def test_selects_per_class(self, small_case_module, localization):
        protos = select_prototypes(
            small_case_module.preop_mri,
            small_case_module.preop_labels,
            localization,
            per_class=10,
            seed=0,
        )
        for cls_value in CLASSES:
            present = (small_case_module.preop_labels.data == cls_value).any()
            count = (protos.labels == cls_value).sum()
            assert count == (10 if present else 0)

    def test_feature_dimension(self, small_case_module, localization):
        protos = select_prototypes(
            small_case_module.preop_mri, small_case_module.preop_labels, localization, per_class=5
        )
        assert protos.features.shape == (len(protos), 1 + len(CLASSES))

    def test_update_features_keeps_locations(self, small_case_module, localization):
        protos = select_prototypes(
            small_case_module.preop_mri, small_case_module.preop_labels, localization, per_class=5
        )
        updated = protos.update_features(small_case_module.intraop_mri, localization)
        assert np.array_equal(updated.points_world, protos.points_world)
        assert np.array_equal(updated.labels, protos.labels)
        assert not np.allclose(updated.features[:, 0], protos.features[:, 0])

    def test_rejects_zero_per_class(self, small_case_module, localization):
        with pytest.raises(ValidationError):
            select_prototypes(
                small_case_module.preop_mri, small_case_module.preop_labels, localization, per_class=0
            )

    def test_build_features_concatenates_intensity_first(self, small_case_module, localization):
        pts = small_case_module.preop_labels.index_to_world(
            np.array([[16.0, 16.0, 12.0]])
        )
        feats = build_features(small_case_module.preop_mri, localization, pts)
        assert feats.shape == (1, 1 + len(CLASSES))


class TestKNN:
    def test_separable_two_class(self, rng):
        a = rng.normal(0.0, 0.3, (50, 2))
        b = rng.normal(5.0, 0.3, (50, 2))
        X = np.vstack([a, b])
        y = np.array([0] * 50 + [1] * 50)
        clf = KNNClassifier(k=3).fit(X, y)
        pred = clf.predict(np.array([[0.1, -0.2], [5.2, 4.9]]))
        assert pred.tolist() == [0, 1]

    def test_k1_reproduces_training_labels(self, rng):
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, 30)
        clf = KNNClassifier(k=1).fit(X, y)
        assert np.array_equal(clf.predict(X), y)

    def test_standardization_makes_scales_commensurable(self, rng):
        """A feature 1000x larger must not dominate after standardization."""
        n = 60
        informative = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
        noise = rng.normal(0, 1000.0, n)
        X = np.stack([informative, noise], axis=1)
        y = (informative > 0.5).astype(int)
        clf = KNNClassifier(k=5).fit(X, y)
        test = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert clf.predict(test).tolist() == [0, 1]

    def test_predict_preserves_leading_shape(self, rng):
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, 20)
        clf = KNNClassifier(k=3).fit(X, y)
        out = clf.predict(rng.normal(size=(4, 5, 3)))
        assert out.shape == (4, 5)

    def test_chunking_matches_unchunked(self, rng):
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, 40)
        queries = rng.normal(size=(100, 3))
        a = KNNClassifier(k=5, chunk=7).fit(X, y).predict(queries)
        b = KNNClassifier(k=5, chunk=100000).fit(X, y).predict(queries)
        assert np.array_equal(a, b)

    def test_default_chunk_spans_many_blocks_and_matches_one_block(self, rng):
        """In-place distance build: same labels as the three-temporary form."""
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 4, 60)
        queries = rng.normal(size=(3 * KNNClassifier().chunk + 17, 4))
        clf = KNNClassifier(k=5).fit(X, y)
        Q = (queries - clf._mean) / clf._scale
        d2 = (
            np.sum(Q * Q, axis=1)[:, None]
            - 2.0 * Q @ clf._train.T
            + np.sum(clf._train * clf._train, axis=1)[None, :]
        )
        nearest = np.argpartition(d2, 4, axis=1)[:, :5]
        votes = np.stack([(y[nearest] == c).sum(axis=1) for c in range(4)], axis=1)
        clear = (votes == votes.max(axis=1, keepdims=True)).sum(axis=1) == 1
        labels = clf.predict(queries)
        assert np.array_equal(labels[clear], np.argmax(votes, axis=1)[clear])
        assert np.array_equal(labels, KNNClassifier(k=5, chunk=10**6).fit(X, y).predict(queries))

    def test_unfitted_raises(self):
        with pytest.raises(ValidationError):
            KNNClassifier().predict(np.zeros((1, 2)))

    def test_feature_dim_mismatch_raises(self, rng):
        clf = KNNClassifier(k=1).fit(rng.normal(size=(10, 3)), np.zeros(10, dtype=int))
        with pytest.raises(ShapeError):
            clf.predict(np.zeros((5, 4)))

    def test_too_few_prototypes_raises(self, rng):
        with pytest.raises(ValidationError):
            KNNClassifier(k=10).fit(rng.normal(size=(3, 2)), np.zeros(3, dtype=int))

    def test_full_segmentation_recovers_phantom(self, small_case_module, localization):
        protos = select_prototypes(
            small_case_module.intraop_mri,
            small_case_module.intraop_labels,
            localization,
            classes=CLASSES,
            per_class=40,
            seed=1,
        )
        clf = KNNClassifier(k=5).fit_prototypes(protos)
        seg = clf.segment(small_case_module.intraop_mri, localization)
        dice = dice_per_class(seg.data, small_case_module.intraop_labels.data, CLASSES)
        assert dice[int(Tissue.BRAIN)] > 0.9
        assert dice[int(Tissue.SKIN)] > 0.9


class TestQualityMetrics:
    def test_dice_per_class_perfect(self):
        labels = np.random.default_rng(0).integers(0, 3, (5, 5, 5))
        d = dice_per_class(labels, labels)
        assert all(v == 1.0 for v in d.values())

    def test_confusion_matrix_diagonal_for_perfect(self):
        labels = np.random.default_rng(0).integers(0, 3, (4, 4, 4))
        cm = confusion_matrix(labels, labels, (0, 1, 2))
        assert cm.sum() == labels.size
        assert np.all(cm == np.diag(np.diag(cm)))

    def test_confusion_matrix_off_diagonal(self):
        truth = np.zeros((2, 2, 2), dtype=int)
        pred = np.ones((2, 2, 2), dtype=int)
        cm = confusion_matrix(pred, truth, (0, 1))
        assert cm[0, 1] == 8 and cm[0, 0] == 0


# -- frozen reference --------------------------------------------------------
#
# ``KNNClassifier.predict``'s chunk loop as it stood before the k-argmin
# top-k replaced the partial sort and the one-hot vote count. Without exact
# distance ties at the k-th place the neighbour *set* is the same, so the
# labels must be too.


def _frozen_predict(clf: KNNClassifier, features: np.ndarray, chunk: int) -> np.ndarray:
    X = np.asarray(features, dtype=float)
    X = (X - clf._mean) / clf._scale
    out = np.empty(len(X), dtype=np.intp)
    train = clf._train
    train_sq = np.sum(train * train, axis=1)
    classes = np.unique(clf._labels)
    onehot = (clf._labels[:, None] == classes[None, :]).astype(np.float64)
    for start in range(0, len(X), chunk):
        block = X[start : start + chunk]
        d2 = (-2.0 * block) @ train.T
        d2 += np.sum(block * block, axis=1)[:, None]
        d2 += train_sq[None, :]
        k = min(clf.k, train.shape[0])
        nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
        votes = onehot[nearest].sum(axis=1)
        best = classes[np.argmax(votes, axis=1)]
        top = np.max(votes, axis=1)
        tied = (votes == top[:, None]).sum(axis=1) > 1
        if np.any(tied):
            best[tied] = clf._labels[np.argmin(d2[tied], axis=1)]
        out[start : start + chunk] = best
    return out


class TestKNNTopK:
    @pytest.mark.parametrize(
        "n_prototypes, n_classes, k",
        [
            (120, 6, 5),  # the pipeline's setting
            (9, 3, 9),  # k == n_prototypes: every prototype votes
            (40, 2, 7),  # k larger than the class count
            (30, 30, 4),  # every prototype its own class: all votes tie
            (25, 4, 1),
        ],
    )
    def test_equals_frozen_argpartition_predict(self, rng, n_prototypes, n_classes, k):
        P = rng.normal(size=(n_prototypes, 5)) * [1.0, 20.0, 0.1, 5.0, 1.0]
        y = rng.permutation(np.arange(n_prototypes) % n_classes) * 3 - 2  # sparse ids
        X = rng.normal(size=(2 * 1024 + 331, 5)) * [1.0, 20.0, 0.1, 5.0, 1.0]
        want = _frozen_predict(KNNClassifier(k=k).fit(P, y), X, chunk=4096)
        assert len(np.unique(want)) > 1
        assert np.array_equal(KNNClassifier(k=k).fit(P, y).predict(X), want)  # default chunk
        for chunk in (1, 7, 1024, len(X)):
            assert np.array_equal(KNNClassifier(k=k, chunk=chunk).fit(P, y).predict(X), want)

    def test_rejects_k_below_one(self, rng):
        with pytest.raises(ValidationError):
            KNNClassifier(k=0).fit(rng.normal(size=(5, 2)), np.zeros(5, dtype=int))

    def test_vote_tie_goes_to_the_nearest_neighbours_class(self):
        # k = 4 around x = 0: the nearest is class 9, then two of class 1
        # and one more of class 9 -- two votes each.
        P = np.array([[0.1], [0.5], [-0.6], [0.9], [30.0], [-30.0]])
        y = np.array([9, 1, 1, 9, 5, 5])
        clf = KNNClassifier(k=4).fit(P, y)
        assert clf.predict(np.array([[0.0]]))[0] == 9
        assert _frozen_predict(clf, np.array([[0.0]]), chunk=8)[0] == 9

    @pytest.mark.parametrize("first, second", [(1, 2), (2, 1)])
    def test_distance_tie_at_kth_place_takes_lowest_prototype_index(self, first, second):
        """Two prototypes at the same point, different classes, tied for the
        k-th place: the partial sort's pick was arbitrary; the k-argmin
        top-k takes the one that comes first in the prototype set."""
        P = np.array([[0.0], [-1.0], [3.0], [3.0], [100.0]])
        y = np.array([first, second, first, second, 0])  # indices 2 and 3 coincide
        clf = KNNClassifier(k=3).fit(P, y)
        # Nearest: index 0 (class ``first``), index 1 (``second``), then the
        # tie. Index 2 wins it, so ``first`` has two of the three votes.
        assert clf.predict(np.array([[0.1]]))[0] == first
        # With k = 1 on the duplicates themselves the same rule decides alone.
        assert KNNClassifier(k=1).fit(P, y).predict(np.array([[3.2]]))[0] == first
