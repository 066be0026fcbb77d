"""Tests for rigid transforms, pyramids, and MI registration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.imaging.phantom import make_neurosurgery_case
from repro.imaging.resample import axis_cells
from repro.imaging.volume import ImageVolume
from repro.obs.trace import Tracer, use_tracer
from repro.registration import powell
from repro.registration.pyramid import downsample, pyramid
from repro.registration.rigid import (
    MutualInformationCost,
    register_rigid,
    resample_moving,
)
from repro.registration.transform import RigidTransform
from repro.util import ShapeError, ValidationError, default_rng
from tests.test_imaging_resample import _frozen_trilinear_sample

CENTER = (10.0, -4.0, 2.0)

small_params = st.tuples(
    st.floats(-8, 8), st.floats(-8, 8), st.floats(-8, 8),
    st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3),
)


class TestRigidTransform:
    def test_identity_is_noop(self, rng):
        pts = rng.normal(0, 50, (20, 3))
        assert np.allclose(RigidTransform.identity(CENTER).apply(pts), pts)

    def test_pure_translation(self, rng):
        pts = rng.normal(0, 50, (20, 3))
        t = RigidTransform((1.0, -2.0, 3.0), center=CENTER)
        assert np.allclose(t.apply(pts), pts + [1.0, -2.0, 3.0])

    def test_rotation_preserves_distances(self, rng):
        pts = rng.normal(0, 50, (20, 3))
        t = RigidTransform(rotation=(0.3, -0.2, 0.5), center=CENTER)
        out = t.apply(pts)
        d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        d_out = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
        assert np.allclose(d_in, d_out)

    def test_rotation_fixes_center(self):
        t = RigidTransform(rotation=(0.4, 0.1, -0.2), center=CENTER)
        assert np.allclose(t.apply(np.array(CENTER)), CENTER)

    @settings(max_examples=30, deadline=None)
    @given(small_params)
    def test_property_inverse_roundtrip(self, params):
        t = RigidTransform.from_params(np.array(params), CENTER)
        pts = np.mgrid[0:2, 0:2, 0:2].reshape(3, -1).T * 40.0
        assert np.allclose(t.inverse().apply(t.apply(pts)), pts, atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(small_params, small_params)
    def test_property_compose_equals_sequential(self, p1, p2):
        a = RigidTransform.from_params(np.array(p1), CENTER)
        b = RigidTransform.from_params(np.array(p2), CENTER)
        pts = np.mgrid[0:2, 0:2, 0:2].reshape(3, -1).T * 30.0
        assert np.allclose(a.compose(b).apply(pts), a.apply(b.apply(pts)), atol=1e-8)

    def test_params_roundtrip(self):
        p = np.array([1.0, 2.0, 3.0, 0.1, 0.2, 0.3])
        assert np.allclose(RigidTransform.from_params(p, CENTER).params(), p)

    def test_from_params_validates_shape(self):
        with pytest.raises(ShapeError):
            RigidTransform.from_params(np.zeros(5))

    def test_compose_requires_shared_center(self):
        a = RigidTransform(center=(0.0, 0.0, 0.0))
        b = RigidTransform(center=(1.0, 0.0, 0.0))
        with pytest.raises(ShapeError):
            a.compose(b)

    def test_magnitude_zero_for_identity(self):
        assert RigidTransform.identity().magnitude() == 0.0

    def test_magnitude_additive_parts(self):
        t = RigidTransform((3.0, 0.0, 4.0))
        assert t.magnitude() == pytest.approx(5.0)


class TestPyramid:
    def test_downsample_halves_shape(self):
        vol = ImageVolume(np.random.default_rng(0).random((8, 8, 8)))
        out = downsample(vol, 2)
        assert out.shape == (4, 4, 4)
        assert out.spacing == (2.0, 2.0, 2.0)

    def test_downsample_preserves_world_position(self):
        """Block centres sit at the mean of their voxel centres."""
        vol = ImageVolume.zeros((4, 4, 4), spacing=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0))
        out = downsample(vol, 2)
        assert np.allclose(out.index_to_world(np.zeros(3)), [0.5, 0.5, 0.5])

    def test_downsample_block_mean(self):
        data = np.arange(8.0).reshape(2, 2, 2)
        vol = ImageVolume(data)
        out = downsample(vol, 2)
        assert out.data[0, 0, 0] == pytest.approx(data.mean())

    def test_downsample_factor_one_copies(self):
        vol = ImageVolume(np.ones((3, 3, 3)))
        out = downsample(vol, 1)
        assert out is not vol and np.allclose(out.data, vol.data)

    def test_downsample_rejects_tiny(self):
        with pytest.raises(ValidationError):
            downsample(ImageVolume(np.ones((2, 2, 2))), 4)

    def test_pyramid_order_coarse_to_fine(self):
        vol = ImageVolume(np.ones((16, 16, 16)))
        levels = pyramid(vol, 3)
        assert [lv.shape[0] for lv in levels] == [4, 8, 16]


class TestRegisterRigid:
    @pytest.fixture(scope="class")
    def fixed_volume(self):
        case = make_neurosurgery_case(
            shape=(32, 32, 24), shift_mm=0.0, resection=False, seed=21, noise_sigma=2.0
        )
        return case.preop_mri

    def test_recovers_known_transform(self, fixed_volume):
        center = tuple(
            float(o + e / 2)
            for o, e in zip(fixed_volume.origin, fixed_volume.physical_extent)
        )
        true = RigidTransform((4.0, -3.0, 2.0), (0.05, -0.02, 0.04), center)
        moving = resample_moving(fixed_volume, fixed_volume, true.inverse())
        result = register_rigid(fixed_volume, moving, levels=2, max_iter=3, max_samples=6000)
        residual = result.transform.compose(true.inverse()).magnitude()
        assert residual < 2.5  # mm-equivalent at 80 mm head radius

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "Known capture-range bug, pinned so that output-preserving changes cannot "
            "fix it by accident: from (10, -8, 4) mm / (0.1, 0.1, -0.1) rad the search "
            "ends ~28 mm off at max_iter=1 and at max_iter=3. The tolerance half is "
            "fixed (repro.registration.powell.LINE_TOL_FLOOR: a line search no longer "
            "refines a translation to 1e-5 mm). What remains is the bracket, kept "
            "exactly as scipy's unbounded Powell has it: every direction is probed at "
            "+1 and -1.618 in raw parameter units -- 57 and -93 degrees for the "
            "rotations. Scaling and bounding it changes the optimum reached and moves "
            "field error downstream (EXPERIMENTS.md, Rigid search tolerance), so it "
            "waits for the two-family accuracy study of ROADMAP item 5."
        ),
    )
    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_recovers_large_misalignment(self, fixed_volume, max_iter):
        center = tuple(
            float(o + e / 2)
            for o, e in zip(fixed_volume.origin, fixed_volume.physical_extent)
        )
        true = RigidTransform((10.0, -8.0, 4.0), (0.1, 0.1, -0.1), center)
        moving = resample_moving(fixed_volume, fixed_volume, true.inverse())
        result = register_rigid(
            fixed_volume, moving, levels=2, max_iter=max_iter, max_samples=6000
        )
        assert result.transform.compose(true.inverse()).magnitude() < 2.5

    def test_identity_when_aligned(self, fixed_volume):
        result = register_rigid(fixed_volume, fixed_volume, levels=1, max_iter=2, max_samples=4000)
        assert result.transform.magnitude() < 1.5

    def test_reports_evaluations_and_levels(self, fixed_volume):
        result = register_rigid(fixed_volume, fixed_volume, levels=2, max_iter=1, max_samples=2000)
        assert result.evaluations > 0
        assert len(result.level_params) == 2

    def test_rejects_bad_levels(self, fixed_volume):
        with pytest.raises(ValidationError):
            register_rigid(fixed_volume, fixed_volume, levels=0)


# -- frozen references -------------------------------------------------------
#
# ``_mi_cost``, the ``mutual_information`` it called and ``register_rigid``
# as they stood before the per-level ``MutualInformationCost`` evaluator
# replaced the per-call cost function and ``repro.registration.powell``
# replaced ``scipy.optimize.minimize``. The evaluator must return the same
# float; the minimiser, with scipy's 1e-11 for ``LINE_TOL_FLOOR``, must walk
# the same trajectory.


def _frozen_mutual_information(a, b, bins):
    av = np.asarray(a, dtype=float).ravel()
    bv = np.asarray(b, dtype=float).ravel()

    def _digitize(x):
        lo, hi = float(x.min()), float(x.max())
        if hi <= lo:
            return np.zeros(x.shape, dtype=np.intp)
        scaled = (x - lo) / (hi - lo) * bins
        return np.clip(scaled.astype(np.intp), 0, bins - 1)

    ia, ib = _digitize(av), _digitize(bv)
    counts = np.bincount(ia * bins + ib, minlength=bins * bins)
    hist = counts.reshape(bins, bins).astype(np.float64)
    pab = hist / hist.sum()
    pa = pab.sum(axis=1, keepdims=True)
    pb = pab.sum(axis=0, keepdims=True)
    nz = pab > 0
    ratio = np.zeros_like(pab)
    ratio[nz] = pab[nz] / (pa @ pb)[nz]
    return float(np.sum(pab[nz] * np.log(ratio[nz])))


def _frozen_mi_cost(params, fixed_values, fixed_points, moving, center, bins):
    transform = RigidTransform.from_params(params, center)
    moved = _frozen_trilinear_sample(moving, transform.apply(fixed_points), fill_value=0.0)
    return -_frozen_mutual_information(fixed_values, moved, bins)


def _frozen_register_rigid(
    fixed, moving, levels=2, bins=32, max_samples=20000, initial=None, max_iter=4, seed=0
):
    """Returns ``(level_params, evaluations, mutual_information)``."""
    rng = default_rng(seed)
    center = tuple(float(o + e / 2.0) for o, e in zip(fixed.origin, fixed.physical_extent))
    params = (
        initial.params() if initial is not None else RigidTransform.identity(center).params()
    )
    evaluations = 0
    level_params = []
    mi_final = 0.0
    for level_fixed in pyramid(fixed, levels):
        pts = level_fixed.voxel_centers().reshape(-1, 3)
        values = level_fixed.data.astype(float).ravel()
        fg = values > values.mean() * 0.25
        if fg.sum() > 100:
            pts, values = pts[fg], values[fg]
        if len(values) > max_samples:
            pick = rng.choice(len(values), size=max_samples, replace=False)
            pts, values = pts[pick], values[pick]
        counter = {"n": 0}

        def cost(p, _pts=pts, _vals=values):
            counter["n"] += 1
            return _frozen_mi_cost(p, _vals, _pts, moving, center, bins)

        result = optimize.minimize(
            cost, params, method="Powell",
            options={"maxiter": max_iter, "xtol": 1e-3, "ftol": 1e-5},
        )
        params = np.asarray(result.x, dtype=float)
        evaluations += counter["n"]
        level_params.append(params.copy())
        mi_final = -float(result.fun)
    return level_params, evaluations, mi_final


def _mi_case(rng, shape, kind):
    """A moving volume on an anisotropic, shifted grid and fixed samples in
    the middle half of its extent (inside under small transforms)."""
    spacing = tuple(rng.uniform(0.4, 3.0, 3))
    origin = tuple(rng.uniform(-30.0, 30.0, 3))
    if kind == "int":
        data = rng.integers(0, 200, shape).astype(np.int16)
    elif kind == "flat":
        data = np.full(shape, 7.5)
    else:
        data = rng.normal(100.0, 40.0, shape)
    moving = ImageVolume(data, spacing, origin)
    extent = (np.array(shape) - 1) * np.array(spacing)
    n = int(rng.integers(1, 400))
    points = np.array(origin) + extent * rng.uniform(0.25, 0.75, (n, 3))
    center = tuple(np.array(origin) + extent / 2.0)
    return moving, points, rng.normal(50.0, 20.0, n), center


def _inside(moving, points, center, params):
    idx = moving.world_to_index(RigidTransform.from_params(params, center).apply(points))
    return np.all((idx >= 0) & (idx <= np.array(moving.shape) - 1), axis=1)


def _fraction_label(inside):
    return "all" if inside.all() else "some" if inside.any() else "none"


class TestMutualInformationCost:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**30),
        shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
        kind=st.sampled_from(["float", "int", "flat"]),
        bins=st.sampled_from([2, 8, 32]),
        # 0: identity; 0.02: every sample stays inside; 0.25 / 40: the
        # transform throws some / all samples out of the moving volume.
        reach=st.sampled_from([0.0, 0.02, 0.25, 40.0]),
    )
    def test_equals_frozen_mi_cost(self, seed, shape, kind, bins, reach):
        rng = np.random.default_rng(seed)
        moving, points, values, center = _mi_case(rng, shape, kind)
        extent = float(np.max(moving.physical_extent))
        cost = MutualInformationCost(values, points, moving, center, bins)
        for call in range(1, 4):
            params = np.concatenate(
                [rng.normal(0.0, reach * extent, 3), rng.normal(0.0, min(reach, 1.0), 3)]
            )
            event(f"inside: {_fraction_label(_inside(moving, points, center, params))}")
            want = _frozen_mi_cost(params, values, points, moving, center, bins)
            assert cost(params) == want
            assert cost.evaluations == call
            # MI only moves when a sample crosses a bin edge; the samples
            # themselves pin the coordinate arithmetic to the last bit.
            world = RigidTransform.from_params(params, center).apply(points)
            assert np.array_equal(
                cost.sample(params), _frozen_trilinear_sample(moving, world, fill_value=0.0)
            )

    def test_every_sampling_regime_is_reached(self):
        """The named regimes of the property test, one deterministic case each."""
        rng = np.random.default_rng(5)
        moving, points, values, center = _mi_case(rng, (8, 7, 6), "float")
        cost = MutualInformationCost(values, points, moving, center, 16)
        extent = np.asarray(moving.physical_extent)
        regimes = {
            "all": np.array([0.05, -0.05, 0.02, 0.01, -0.01, 0.01]),
            "some": np.concatenate([0.3 * extent, [0.2, -0.1, 0.3]]),
            "none": np.concatenate([5.0 * extent, [0.0, 0.0, 0.0]]),
        }
        for name, params in regimes.items():
            inside = _inside(moving, points, center, params)
            assert _fraction_label(inside) == name
            assert cost(params) == _frozen_mi_cost(params, values, points, moving, center, 16)
        # Nothing inside: the moved samples are all fill, one bin, MI zero.
        assert cost(regimes["none"]) == 0.0

    def test_does_not_modify_its_inputs(self, rng):
        moving, points, values, center = _mi_case(rng, (6, 6, 6), "int")
        kept = points.copy(), values.copy(), moving.data.copy()
        cost = MutualInformationCost(values, points, moving, center, 8)
        cost(np.array([1.0, 2.0, -1.0, 0.1, 0.0, -0.1]))
        assert np.array_equal(points, kept[0])
        assert np.array_equal(values, kept[1])
        assert np.array_equal(moving.data, kept[2])

    def test_validates_once_at_construction(self, rng):
        moving, points, values, center = _mi_case(rng, (4, 4, 4), "float")
        with pytest.raises(ValidationError):
            MutualInformationCost(values, points, moving, center, bins=1)
        with pytest.raises(ShapeError):
            MutualInformationCost(values[:-1], points, moving, center, bins=8)
        with pytest.raises(ValidationError):
            MutualInformationCost(values[:0], points[:0], moving, center, bins=8)
        with pytest.raises(ShapeError):
            MutualInformationCost(values, points, moving, center, 8)(np.zeros(5))


def _walk_step(rng, params, visited, extent, kind, axis):
    """The next point of a walk: Powell's coordinate-line moves and the rest."""
    p = params.copy()
    if kind == "line":
        p[axis] += rng.normal(0.0, 0.1 * extent if axis < 3 else 0.1)
    elif kind == "back":
        p = visited[int(rng.integers(len(visited)))].copy()
    elif kind == "zero":
        p[axis] = rng.choice([0.0, -0.0])
    elif kind == "nan":
        p[axis] = np.nan
    return p


class TestMutualInformationCostMemo:
    """The cost remembers rows between calls; every call is still the frozen one."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**30),
        shape=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
        kind=st.sampled_from(["float", "int", "flat"]),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["line", "line", "line", "back", "zero", "nan"]),
                st.integers(0, 5),
            ),
            min_size=1,
            max_size=14,
        ),
    )
    def test_a_walk_equals_the_frozen_cost_after_every_step(self, seed, shape, kind, steps):
        rng = np.random.default_rng(seed)
        moving, points, values, center = _mi_case(rng, shape, kind)
        extent = float(np.max(moving.physical_extent))
        cost = MutualInformationCost(values, points, moving, center, 8)
        params = np.zeros(6)
        visited = [params]
        for step, axis in steps:
            params = _walk_step(rng, params, visited, extent, step, axis)
            visited.append(params)
            event(step)
            with np.errstate(invalid="ignore"):
                want = _frozen_mi_cost(params, values, points, moving, center, 8)
                world = RigidTransform.from_params(params, center).apply(points)
                frozen = _frozen_trilinear_sample(moving, world, fill_value=0.0)
                got = cost(params)
                sample = cost.sample(params)
            assert got == want or (np.isnan(got) and np.isnan(want))
            assert np.array_equal(sample, frozen, equal_nan=True)

    def test_signed_zeros_are_different_keys(self, monkeypatch):
        """-0.0 and 0.0 compare equal but are different bits: both recompute."""
        calls = self._count_rows(monkeypatch)
        moving, points, values, center = _mi_case(np.random.default_rng(2), (6, 5, 4), "float")
        cost = MutualInformationCost(values, points, moving, center, 8)
        cost(np.zeros(6))
        calls.clear()
        cost(np.array([-0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        assert len(calls) == 1
        cost(np.array([0.0, 0.0, 0.0, 0.0, 0.0, -0.0]))
        assert len(calls) > 1

    @staticmethod
    def _count_rows(monkeypatch):
        from repro.registration import rigid

        calls = []

        def counted(idx, upper, cell_max):
            calls.append(idx.shape)
            return axis_cells(idx, upper, cell_max)

        monkeypatch.setattr(rigid, "axis_cells", counted)
        return calls

    def test_a_translation_step_recomputes_one_row(self, monkeypatch):
        calls = self._count_rows(monkeypatch)
        moving, points, values, center = _mi_case(np.random.default_rng(3), (7, 6, 5), "float")
        cost = MutualInformationCost(values, points, moving, center, 8)
        start = np.array([0.3, -0.2, 0.1, 0.02, -0.01, 0.03])
        cost(start)
        assert len(calls) == 3  # one row per axis
        params = start
        for axis in range(3):
            params = params + 0.5 * np.eye(6)[axis]
            calls.clear()
            cost(params)
            assert calls == [(len(values),)]
        calls.clear()
        cost(params.copy())  # the point just visited
        assert calls == []
        # A rotation about z leaves the z row of the matrix, and so the z
        # index row, as they were.
        cost(params + 0.01 * np.eye(6)[5])
        assert len(calls) == 2


class TestRegisterRigidUnchanged:
    """With scipy's 1e-11 for the floor: the frozen function's trajectory."""

    @pytest.fixture(scope="class")
    def pair(self):
        fixed = make_neurosurgery_case(
            shape=(32, 32, 24), shift_mm=0.0, resection=False, seed=21, noise_sigma=2.0
        ).preop_mri
        center = tuple(float(o + e / 2) for o, e in zip(fixed.origin, fixed.physical_extent))
        true = RigidTransform((4.0, -3.0, 2.0), (0.05, -0.02, 0.04), center)
        return fixed, resample_moving(fixed, fixed, true.inverse())

    @pytest.fixture
    def line_searches(self, monkeypatch):
        """Puts scipy's hard-wired tolerance back; lists the line searches run.

        Each one is handed f(0) where scipy evaluates it again, so the port
        makes exactly one evaluation fewer per line search.
        """
        monkeypatch.setattr(powell, "LINE_TOL_FLOOR", 1e-11)
        searches = []

        def bracket(line, xa, xb):
            searches.append((xa, xb))
            return optimize.bracket(line, xa, xb)

        monkeypatch.setattr(powell, "bracket", bracket)
        return searches

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(levels=2, max_iter=1, max_samples=2000),
            dict(levels=1, max_iter=2, max_samples=4000, bins=16, seed=3),
            # Three iterations: the extrapolated point and a replaced direction.
            dict(levels=2, max_iter=3, max_samples=3000),
        ],
    )
    def test_same_levels_evaluations_and_mi(self, pair, line_searches, kwargs):
        fixed, moving = pair
        result = register_rigid(fixed, moving, **kwargs)
        level_params, evaluations, mi = _frozen_register_rigid(fixed, moving, **kwargs)
        assert len(result.level_params) == len(level_params)
        for got, want in zip(result.level_params, level_params):
            assert np.array_equal(got, want)
        assert len(line_searches) >= 6 * kwargs["levels"]
        assert result.evaluations == evaluations - len(line_searches)
        assert result.mutual_information == mi

    def test_warm_start_follows_the_frozen_trajectory(self, pair, line_searches):
        fixed, moving = pair
        first = register_rigid(fixed, moving, levels=1, max_iter=1, max_samples=1500)
        line_searches.clear()
        kwargs = dict(levels=2, max_iter=1, max_samples=1500, initial=first.transform)
        result = register_rigid(fixed, moving, **kwargs)
        level_params, evaluations, _ = _frozen_register_rigid(fixed, moving, **kwargs)
        assert np.array_equal(result.level_params[-1], level_params[-1])
        assert result.evaluations == evaluations - len(line_searches)

    def test_aligned_pair_stops_early_at_the_same_pose(self, pair):
        """The shipped floor on an aligned scan: far fewer evaluations, same pose."""
        fixed, _ = pair
        kwargs = dict(levels=2, max_iter=1, max_samples=2000)
        result = register_rigid(fixed, fixed, **kwargs)
        level_params, evaluations, _ = _frozen_register_rigid(fixed, fixed, **kwargs)
        assert result.evaluations <= 0.65 * evaluations
        frozen = RigidTransform.from_params(level_params[-1], result.transform.center)
        assert result.transform.compose(frozen.inverse()).magnitude() < 0.05

    def test_one_span_per_pyramid_level(self, pair):
        fixed, moving = pair
        tracer = Tracer()
        with use_tracer(tracer):
            result = register_rigid(fixed, moving, levels=2, max_iter=1, max_samples=2000)
        spans = [s for s in tracer.finished() if s.name == "mi level"]
        assert [s.attrs["level"] for s in spans] == [0, 1]
        assert sum(s.attrs["evaluations"] for s in spans) == result.evaluations
        assert all(0 < s.attrs["samples"] <= 2000 for s in spans)
        assert spans[-1].attrs["mutual_information"] == result.mutual_information
        assert all(s.attrs["kind"] != "stage" for s in spans)
        assert len(tracer.finished()) == 2  # no span per evaluation


def _bowl(x):
    return float(np.sum((x - np.array([0.7, -1.3, 0.2])) ** 2 * np.array([1.0, 4.0, 0.5])))


def _staircase(x):
    """Level plateaus with jumps between them: histogram MI at the sub-voxel scale."""
    return float(np.floor(8.0 * _bowl(x))) / 8.0


class TestMinimizePowell:
    @pytest.mark.parametrize("func", [_bowl, _staircase])
    @pytest.mark.parametrize("x0", [(0.0, 0.0, 0.0), (3.0, -2.0, 5.0), (0.7, -1.3, 0.2)])
    def test_terminates_at_or_below_the_start_value(self, func, x0):
        x0 = np.array(x0)
        seen = []

        def counted(x):
            seen.append(x.copy())
            return func(x)

        x, fval = powell.minimize_powell(counted, x0, max_iter=4, ftol=1e-5)
        assert fval == func(x)
        assert fval <= func(x0)
        assert sum(np.array_equal(p, x0) for p in seen) == 1  # f(x0) is never re-evaluated
        assert len(seen) < 400

    def test_finds_the_minimum_of_a_quadratic_to_the_floor(self):
        x, fval = powell.minimize_powell(_bowl, np.zeros(3), max_iter=4, ftol=1e-5)
        assert np.allclose(x, [0.7, -1.3, 0.2], atol=5 * powell.LINE_TOL_FLOOR)
        assert fval < 1e-5

    def test_a_level_line_stays_where_it_is(self):
        """No valid bracket on a plateau: the best of the probed points is 0."""
        calls = []

        def flat(x):
            calls.append(x.copy())
            return 2.5

        x, fval = powell.minimize_powell(flat, np.array([1.0, 2.0]), max_iter=3, ftol=1e-5)
        assert np.array_equal(x, [1.0, 2.0]) and fval == 2.5
        assert len(calls) == 1 + 2 * 2  # f(x0), then probes at 1 and 2.618 per direction
