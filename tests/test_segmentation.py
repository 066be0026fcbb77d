"""Tests for localization models, prototypes, and k-NN classification."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.imaging.distance import signed_distance
from repro.imaging.phantom import Tissue
from repro.imaging.resample import trilinear_sample_many
from repro.imaging.volume import ImageVolume
from repro.registration.transform import RigidTransform
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
        assert model.absent == (0,)

    def test_absent_class_row_is_the_cap_without_a_gather(self, small_case_module, rng):
        """A trilinear blend of the flat volume lands ulps off the cap; the
        absent class's row is the cap itself, the other rows are unchanged."""
        labels = small_case_module.preop_labels
        model = LocalizationModel.from_labels(labels, CLASSES + (99,), cap_mm=12.0)
        assert model.absent == (len(CLASSES),)
        points = rng.uniform(0.0, 100.0, size=(500, 3))
        rows = model.sample_rows(points)
        assert np.all(rows[-1] == 12.0)
        present = LocalizationModel.from_labels(labels, CLASSES, cap_mm=12.0)
        assert present.absent == ()
        assert np.array_equal(rows[:-1], present.sample_rows(points))

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

    def test_a_channel_flat_but_for_ulps_is_no_feature(self):
        """A flat channel whose prototypes differ only by ulps (a blend of a
        constant) gets scale 1, not its ~1e-15 spread: it adds nothing to the
        distances instead of an O(1) vote against the real channel."""
        cap = 15.0
        up, down = np.nextafter(cap, np.inf), np.nextafter(cap, -np.inf)
        protos = np.array([[0.0, up], [1.0, up], [10.0, down], [11.0, down]])
        labels = np.array([1, 1, 2, 2])
        clf = KNNClassifier(k=1).fit(protos, labels)
        assert 0.0 < protos[:, 1].std() and clf._scale[1] == 1.0
        queries = np.array([[0.6, down], [10.4, up]])
        # Scaled by its spread, the ulps alone would swap both labels.
        assert clf.predict(queries).tolist() == [1, 2]
        flat = KNNClassifier(k=1).fit(np.c_[protos[:, 0], np.full(4, cap)], labels)
        assert flat._scale[1] == 1.0
        assert np.array_equal(clf.predict(queries), flat.predict(np.c_[queries[:, 0], [cap, cap]]))

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


# -- frozen reference --------------------------------------------------------
#
# ``KNNClassifier.predict``'s block loop as it stood before rows were
# decided at a majority: point-major standardization, the distance matrix
# built in three roundings, k ``argmin`` passes and the vote on every row.
# The same real distances rounded differently can swap two prototypes only
# when they agree to ~1e-15 relative, which continuous random data does
# not produce; exact duplicates tie exactly in both. ``_frozen_sample_at``
# and ``_frozen_segment`` are the point-major feature path that fed it.


def _frozen_kargmin_predict(clf: KNNClassifier, features: np.ndarray) -> np.ndarray:
    X = np.asarray(features, dtype=float)
    lead_shape = X.shape[:-1]
    X = X.reshape(-1, X.shape[-1])
    X = (X - clf._mean) / clf._scale
    out = np.empty(len(X), dtype=np.intp)
    train = clf._train
    train_sq = np.sum(train * train, axis=1)
    classes, class_of = np.unique(clf._labels, return_inverse=True)
    k = min(clf.k, train.shape[0])
    for start in range(0, len(X), clf.chunk):
        block = X[start : start + clf.chunk]
        d2 = (-2.0 * block) @ train.T
        d2 += np.sum(block * block, axis=1)[:, None]
        d2 += train_sq[None, :]
        rows = np.arange(len(block))
        votes = np.zeros((len(classes), len(block)), dtype=np.intp)
        for nth in range(k):
            pick = np.argmin(d2, axis=1)
            if nth == 0:
                nearest = pick
            votes[class_of[pick], rows] += 1
            d2[rows, pick] = np.inf
        best = classes[np.argmax(votes, axis=0)]
        tied = (votes == votes.max(axis=0)).sum(axis=0) > 1
        if np.any(tied):
            best[tied] = clf._labels[nearest[tied]]
        out[start : start + clf.chunk] = best
    return out.reshape(lead_shape)


def _frozen_sample_at(model: LocalizationModel, points_world, transform=None) -> np.ndarray:
    pts = np.asarray(points_world, dtype=float)
    if transform is not None:
        pts = transform.apply(pts)
    samples = trilinear_sample_many(model.channels, pts, fill_values=model.cap_mm)
    return np.stack(samples, axis=-1)


def _frozen_segment(
    clf: KNNClassifier, image, localization, transform=None, band=None, prior=None
) -> ImageVolume:
    """Every voxel through the point-major full vote; with a band, each voxel
    whose mapped centre rounds outside it (or off the prior's grid) then
    takes the prior's label there (AIR off the grid)."""
    centres = image.voxel_centers()
    feats = build_features(image, localization, centres, transform=transform)
    labels = _frozen_kargmin_predict(clf, feats)
    if band is not None:
        in_band, kept, _ = _nearest_band_and_prior(band, prior, centres, transform)
        labels = np.where(in_band, labels, kept)
    return ImageVolume(labels.astype(np.int16), image.spacing, image.origin)


def _nearest_band_and_prior(band, prior, centres, transform):
    """Band test, prior label (AIR off the grid) and on-grid flag at the voxel
    each mapped centre rounds to."""
    mapped = centres if transform is None else transform.apply(centres)
    ijk = np.rint(prior.world_to_index(mapped)).astype(np.intp)
    on_grid = ((ijk >= 0) & (ijk < prior.shape)).all(axis=-1)
    i, j, k = np.moveaxis(np.where(on_grid[..., None], ijk, 0), -1, 0)
    in_band = on_grid & band[i, j, k]
    kept = np.where(on_grid, prior.data[i, j, k], int(Tissue.AIR))
    return in_band, kept, on_grid


@st.composite
def knn_problems(draw):
    """Prototypes, sparse class ids, queries, k and chunk from a drawn seed.

    The values are continuous (no two distinct distances agree to
    rounding); the structure is adversarial: duplicated prototypes of
    other classes, queries sitting on prototypes (so a duplicated pair is
    the nearest two, or straddles the k-th place), a zero-variance
    feature, even k, k above the prototype count allowed by ``fit``.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**30)))
    n_classes = draw(st.integers(1, 30))
    n_distinct = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 8))
    P = rng.normal(size=(n_distinct, n_features)) * rng.uniform(0.1, 20.0, n_features)
    class_index = rng.integers(0, n_classes, n_distinct)
    dup = rng.choice(n_distinct, draw(st.integers(0, n_distinct)), replace=False)
    P = np.concatenate([P, P[dup]])
    class_index = np.concatenate([class_index, (class_index[dup] + 1) % n_classes])
    if draw(st.booleans()):
        P[:, rng.integers(n_features)] = 3.25  # a zero-variance feature
    n_queries = draw(st.integers(2, 120))
    X = rng.normal(size=(n_queries, n_features)) * 20.0
    on = rng.random(n_queries) < 0.5
    X[on] = P[rng.integers(0, len(P), on.sum())] + 1e-3 * rng.normal(size=(on.sum(), n_features))
    k = draw(st.integers(1, min(9, len(P))))
    chunk = draw(st.sampled_from([1, 7, KNNClassifier().chunk, n_queries]))
    return P, class_index * 7 - 11, X, k, chunk


class TestKNNDecidesAtAMajority:
    @settings(max_examples=150, deadline=None)
    @given(knn_problems())
    def test_equals_frozen_kargmin_predict(self, problem):
        P, y, X, k, chunk = problem
        clf = KNNClassifier(k=k, chunk=chunk).fit(P, y)
        # The oracle runs as one block: in a one-row block its product went
        # through BLAS's matrix-vector kernel, which gives equal columns
        # unequal sums, so there its own lowest-index rule did not hold.
        oracle = KNNClassifier(k=k, chunk=len(X)).fit(P, y)
        assert np.array_equal(clf.predict(X), _frozen_kargmin_predict(oracle, X))
        assert 0.0 <= clf.open_share <= 1.0

    def test_a_one_row_block_ties_exactly_too(self, rng):
        """Duplicated prototypes, queries on them, k = 1: the lower index wins
        whether the row is classified alone or in a block."""
        for _ in range(50):
            n, c = int(rng.integers(2, 40)), int(rng.integers(1, 9))
            P = rng.normal(size=(n, c))
            P = np.concatenate([P, P])
            y = np.arange(2 * n)
            X = P[:n] + 1e-3 * rng.normal(size=(n, c))
            alone = KNNClassifier(k=1, chunk=1).fit(P, y).predict(X)
            assert np.array_equal(alone, KNNClassifier(k=1, chunk=n).fit(P, y).predict(X))
            assert alone.max() < n

    def test_ties_at_the_nearest_and_at_the_kth_place_reach_both_bodies(self, rng):
        """The differential above is only as good as its cases: on this draw a
        duplicated pair of different classes is the nearest two for some rows
        and straddles the k-th place for others, and the labels still agree."""
        P = rng.normal(size=(12, 3))
        P = np.concatenate([P, P[:6]])
        y = np.concatenate([np.arange(12) // 4, (np.arange(6) // 4 + 1) % 3])
        X = np.concatenate([P[:6] + 1e-3 * rng.normal(size=(6, 3)), rng.normal(size=(400, 3))])
        clf = KNNClassifier(k=5).fit(P, y)
        Q = (X - clf._mean) / clf._scale
        d2 = ((Q[:, None, :] - clf._train[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(d2, axis=1, kind="stable")
        ranked = np.take_along_axis(d2, order, axis=1)
        assert (ranked[:, 0] == ranked[:, 1]).any()
        assert (ranked[:, 4] == ranked[:, 5]).any()
        assert np.array_equal(clf.predict(X), _frozen_kargmin_predict(clf, X))
        assert 0.0 < clf.open_share < 1.0

    @pytest.mark.parametrize("k", [4, 5])
    def test_agreeing_first_picks_decide_for_every_continuation(self, k):
        """The counting argument, enumerated: once the ``k // 2 + 1`` nearest
        agree, no choice of the remaining neighbours' classes changes the
        vote's winner or ties it."""
        need = k // 2 + 1
        n_classes = 4
        for decided in range(n_classes):
            for rest in itertools.product(range(n_classes), repeat=k - need):
                votes = np.bincount([decided] * need + list(rest), minlength=n_classes)
                assert votes.argmax() == decided
                assert (votes == votes.max()).sum() == 1
        # ... and with one agreeing pick fewer, some continuation overturns it.
        overturned = [
            rest
            for rest in itertools.product(range(n_classes), repeat=k - need + 1)
            if np.bincount([0] * (need - 1) + list(rest), minlength=n_classes)[1:].max()
            >= need - 1
        ]
        assert overturned

    def test_open_share_counts_the_rows_past_the_majority(self):
        # Around x = 0 (k = 3, need = 2): classes 1, 1 decide at once. Around
        # x = 10: classes 1, 2 disagree, the third pick (class 2) settles it.
        P = np.array([[0.0], [0.2], [9.9], [10.2], [10.4], [50.0]])
        y = np.array([1, 1, 1, 2, 2, 3])
        clf = KNNClassifier(k=3).fit(P, y)
        assert clf.predict(np.array([[0.1], [10.0], [0.05], [0.15]])).tolist() == [1, 2, 1, 1]
        assert clf.open_share == 0.25


def _anisotropic_case():
    """A small scan on a grid unlike the model's, and a rigid map between them."""
    from repro.imaging.phantom import make_neurosurgery_case

    case = make_neurosurgery_case(shape=(20, 18, 12), shift_mm=3.0, seed=5)
    rng = np.random.default_rng(8)
    extent = np.asarray(case.preop_mri.physical_extent)
    scan = ImageVolume(
        rng.random((15, 13, 11)) * 200.0, tuple(extent / (15, 13, 11) * 0.9), (2.0, -1.0, 3.0)
    )
    transform = RigidTransform((1.5, -2.0, 0.7), (0.03, -0.02, 0.04), tuple(extent / 2))
    return case, scan, transform


class TestSegmentFeedsRows:
    @pytest.mark.parametrize("classes", [CLASSES, CLASSES + (99,)], ids=["present", "absent"])
    @pytest.mark.parametrize("through", ["identity", "rigid"])
    def test_segment_equals_predict_of_build_features(
        self, small_case_module, classes, through
    ):
        case = small_case_module
        loc = LocalizationModel.from_labels(case.preop_labels, classes, cap_mm=12.0)
        transform = None if through == "identity" else RigidTransform(
            (1.0, -0.5, 0.8), (0.02, 0.01, -0.03), (50.0, 50.0, 40.0)
        )
        protos = select_prototypes(
            case.intraop_mri, case.preop_labels, loc, per_class=15, transform=transform, seed=3
        )
        clf = KNNClassifier(k=5).fit_prototypes(protos)
        seg = clf.segment(case.intraop_mri, loc, transform)
        feats = build_features(case.intraop_mri, loc, case.intraop_mri.voxel_centers(), transform)
        assert np.array_equal(seg.data, clf.predict(feats))
        assert np.array_equal(seg.data, _frozen_segment(clf, case.intraop_mri, loc, transform).data)
        assert seg.data.dtype == np.int16 and seg.shape == case.intraop_mri.shape
        assert seg.spacing == case.intraop_mri.spacing and seg.origin == case.intraop_mri.origin

    def test_anisotropic_scan_grid_through_a_rigid_map(self):
        case, scan, transform = _anisotropic_case()
        loc = LocalizationModel.from_labels(case.preop_labels, CLASSES, cap_mm=10.0)
        points = scan.voxel_centers().reshape(-1, 3)[::9]
        feats = build_features(scan, loc, points, transform)
        clf = KNNClassifier(k=4, chunk=100).fit(feats, np.arange(len(feats)) % 5 * 2)
        seg = clf.segment(scan, loc, transform)
        assert len(np.unique(seg.data)) > 1
        assert np.array_equal(
            seg.data, clf.predict(build_features(scan, loc, scan.voxel_centers(), transform))
        )
        assert np.array_equal(seg.data, _frozen_segment(clf, scan, loc, transform).data)

    def test_refuses_before_sampling_anything(self, small_case_module, localization, monkeypatch):
        """An unfitted classifier, or a model whose channel count is not the
        fitted one, raises before a single voxel is gathered."""
        case = small_case_module

        def sampled(*args, **kwargs):
            raise AssertionError("sampled before validating")

        monkeypatch.setattr(LocalizationModel, "sample_rows", sampled)
        monkeypatch.setattr("repro.segmentation.knn.trilinear_sample", sampled)
        with pytest.raises(ValidationError):
            KNNClassifier().segment(case.intraop_mri, localization)
        clf = KNNClassifier(k=1).fit(np.eye(4), np.arange(4))  # 4 != 1 + 6 channels
        with pytest.raises(ShapeError):
            clf.segment(case.intraop_mri, localization)


class TestSampleRows:
    @pytest.mark.parametrize("through", ["identity", "rigid"])
    def test_sample_at_unchanged_and_rows_are_its_transpose(self, localization, through, rng):
        transform = None if through == "identity" else RigidTransform(
            (2.0, -1.0, 0.5), (0.05, -0.02, 0.01), (50.0, 50.0, 40.0)
        )
        points = rng.uniform(-20.0, 140.0, size=(6, 50, 3))  # some outside the model
        got = localization.sample_at(points, transform)
        assert got.shape == (6, 50, len(CLASSES))
        assert np.array_equal(got, _frozen_sample_at(localization, points, transform))
        rows = localization.sample_rows(points, transform)
        assert rows.shape == (len(CLASSES), 6, 50)
        assert np.array_equal(np.moveaxis(rows, 0, -1), got)
        assert (got == localization.cap_mm).any() and (got < localization.cap_mm).any()


BRAIN = PipelineConfig().brain_labels


def _brain_band(labels: ImageVolume, cap_mm: float) -> np.ndarray:
    phi = signed_distance(np.isin(labels.data, BRAIN), cap_mm, labels.spacing)
    return np.abs(phi) < cap_mm


class TestBandLimitedSegment:
    """``segment`` with a band: k-NN inside it, the mapped prior outside."""

    def test_inside_the_full_segmentation_outside_the_mapped_prior(self, small_case_module):
        case = small_case_module
        labels = case.preop_labels
        loc = LocalizationModel.from_labels(labels, CLASSES, cap_mm=12.0)
        # Far enough to push part of the scan off the preoperative grid.
        transform = RigidTransform((12.0, -9.0, 6.0), (0.03, -0.02, 0.05), (50.0, 50.0, 40.0))
        protos = select_prototypes(
            case.intraop_mri, labels, loc, per_class=15, transform=transform, seed=3
        )
        clf = KNNClassifier(k=5).fit_prototypes(protos)
        band = _brain_band(labels, 10.0)
        full = clf.segment(case.intraop_mri, loc, transform).data
        assert clf.classified == full.size and clf.prior_only == {}
        part = clf.segment(case.intraop_mri, loc, transform, band=band, prior=labels).data
        in_band, kept, on_grid = _nearest_band_and_prior(
            band, labels, case.intraop_mri.voxel_centers(), transform
        )
        assert 0 < clf.classified == in_band.sum() < full.size
        assert np.array_equal(part[in_band], full[in_band])
        assert np.array_equal(part[~in_band], kept[~in_band])
        assert (~on_grid).any() and np.all(part[~on_grid] == Tissue.AIR)
        never = kept[~in_band][~np.isin(kept[~in_band], CLASSES)]
        assert never.size and clf.prior_only == {
            int(v): int(n) for v, n in zip(*np.unique(never, return_counts=True))
        }

    def test_band_and_prior_go_together_on_one_grid(self, small_case_module, localization):
        case = small_case_module
        clf = KNNClassifier(k=1).fit(np.eye(1 + len(CLASSES)), np.arange(1 + len(CLASSES)))
        band = _brain_band(case.preop_labels, 10.0)
        with pytest.raises(ValidationError):
            clf.segment(case.intraop_mri, localization, band=band)
        with pytest.raises(ShapeError):
            clf.segment(case.intraop_mri, localization, band=band[1:], prior=case.preop_labels)

    @pytest.mark.parametrize("shift_mm", [2.0, 4.0, 6.0])
    def test_brain_split_is_the_full_segmentations(self, shift_mm):
        """On the phantom, labels move only where the prior keeps a class
        k-NN never emits (the tumour, brain either way): the brain mask the
        active surface tracks is the full segmentation's."""
        from repro.imaging.phantom import make_neurosurgery_case

        cfg = PipelineConfig()
        case = make_neurosurgery_case(shape=(32, 32, 24), shift_mm=shift_mm, seed=7)
        labels = case.preop_labels
        loc = LocalizationModel.from_labels(
            labels, cfg.segmentation_classes, cfg.localization_cap_mm
        )
        protos = select_prototypes(
            case.intraop_mri, labels, loc, cfg.segmentation_classes, per_class=20, seed=0
        )
        clf = KNNClassifier(k=cfg.knn_k).fit_prototypes(protos)
        full = clf.segment(case.intraop_mri, loc).data
        band = _brain_band(labels, cfg.surface_cap_mm)
        part = clf.segment(case.intraop_mri, loc, band=band, prior=labels).data
        assert 0.2 < clf.classified / full.size < 0.6
        assert (part != full).any()
        brain = lambda seg: np.isin(seg, cfg.intraop_brain_labels)
        assert np.array_equal(brain(part), brain(full))


class TestBandFromThePipeline:
    SETTINGS = dict(mesh_cell_mm=8.0, rigid_max_iter=1, rigid_samples=2000, surface_iterations=50)

    def test_band_follows_surface_cap_and_adds_no_config_field(self, small_case_module):
        from repro.core.pipeline import IntraoperativePipeline

        case = small_case_module
        pipes = {
            cap: IntraoperativePipeline(PipelineConfig(**self.SETTINGS, surface_cap_mm=cap))
            for cap in (10.0, 20.0)
        }
        preops = {
            cap: pipe.prepare_preoperative(case.preop_mri, case.preop_labels)
            for cap, pipe in pipes.items()
        }
        for cap, preop in preops.items():
            assert np.array_equal(preop.band, _brain_band(case.preop_labels, cap))
        assert 0.0 < preops[10.0].band.mean() < preops[20.0].band.mean() < 1.0
        # A pipeline whose cap is not the model's classifies its own band.
        assert pipes[20.0]._classification_band(preops[20.0]) is preops[20.0].band
        assert np.array_equal(
            pipes[10.0]._classification_band(preops[20.0]), preops[10.0].band
        )
        result = pipes[10.0].process_scan(case.intraop_mri, preops[20.0])
        assert result.record.counts("tissue classification")["band_mm"] == 10.0
        # The band's width is surface_cap_mm: no knob of its own.
        assert {f.name for f in dataclasses.fields(PipelineConfig)} <= CONFIG_FIELDS


#: ``PipelineConfig``'s fields before the band-limited classifier.
CONFIG_FIELDS = {
    "brain_labels", "intraop_brain_labels", "segmentation_classes", "rigid_levels",
    "rigid_max_iter", "rigid_samples", "localization_cap_mm", "knn_k",
    "prototypes_per_class", "mesh_cell_mm", "target_mesh_nodes", "surface_cap_mm",
    "surface_iterations", "surface_step", "surface_smoothing", "materials", "solver_tol",
    "gmres_restart", "n_ranks", "partitioner", "resilience", "fault_plan", "seed",
}
