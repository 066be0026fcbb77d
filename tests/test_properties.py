"""Cross-module property-based tests (hypothesis).

Invariants that tie subsystems together: geometric consistency of the
imaging/warping stack, classifier invariances, preconditioner
identities, and cost-model monotonicity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.imaging.volume import ImageVolume
from repro.machines.cost import VirtualCluster
from repro.machines.spec import DEEP_FLOW, ULTRA_HPC_6000
from repro.segmentation.knn import KNNClassifier
from repro.solver.gmres import gmres
from tests.conftest import block_jacobi

seeds = st.integers(0, 2**30)


class TestImagingProperties:
    @settings(max_examples=15, deadline=None)
    @given(seeds, st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
    def test_warp_by_constant_equals_shifted_sampling(self, seed, dx, dy, dz):
        """Warping by a constant field == sampling at shifted points."""
        from repro.imaging.resample import trilinear_sample, warp_volume

        rng = np.random.default_rng(seed)
        vol = ImageVolume(rng.random((10, 9, 8)), (2.0, 1.5, 1.0))
        disp = np.broadcast_to(np.array([dx, dy, dz]), (*vol.shape, 3)).copy()
        warped = warp_volume(vol, disp, fill_value=-1.0)
        direct = trilinear_sample(
            vol, vol.voxel_centers() + np.array([dx, dy, dz]), fill_value=-1.0
        )
        assert np.allclose(warped.data, direct)

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_downsample_preserves_total_intensity(self, seed):
        from repro.registration.pyramid import downsample

        rng = np.random.default_rng(seed)
        vol = ImageVolume(rng.random((8, 8, 8)))
        down = downsample(vol, 2)
        # Block mean x block count == original sum.
        assert down.data.sum() * 8 == pytest.approx(vol.data.sum())

    @settings(max_examples=10, deadline=None)
    @given(seeds, st.floats(1.0, 6.0))
    def test_saturated_dt_monotone_in_cap(self, seed, cap):
        from repro.imaging.distance import saturated_distance_transform

        rng = np.random.default_rng(seed)
        mask = rng.random((6, 6, 6)) < 0.2
        if not mask.any():
            mask[0, 0, 0] = True
        small = saturated_distance_transform(mask, cap)
        large = saturated_distance_transform(mask, cap + 2.0)
        assert np.all(small <= large + 1e-12)
        assert np.all(small <= cap + 1e-12)


class TestKNNProperties:
    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_prototype_order_invariance(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, 40)
        queries = rng.normal(size=(25, 3))
        perm = rng.permutation(40)
        a = KNNClassifier(k=5).fit(X, y).predict(queries)
        b = KNNClassifier(k=5).fit(X[perm], y[perm]).predict(queries)
        assert np.array_equal(a, b)

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_affine_feature_invariance(self, seed):
        """Standardization makes the classifier invariant to per-feature
        affine rescaling applied to both prototypes and queries."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 4))
        y = rng.integers(0, 2, 30)
        queries = rng.normal(size=(20, 4))
        scale = rng.uniform(0.5, 20.0, 4)
        offset = rng.normal(0, 5.0, 4)
        a = KNNClassifier(k=3).fit(X, y).predict(queries)
        b = (
            KNNClassifier(k=3)
            .fit(X * scale + offset, y)
            .predict(queries * scale + offset)
        )
        assert np.array_equal(a, b)


class TestSolverProperties:
    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_block_jacobi_exact_on_block_diagonal(self, seed):
        """On a truly block-diagonal matrix the preconditioner IS the
        inverse, so GMRES converges in one iteration."""
        rng = np.random.RandomState(seed % 2**31)
        blocks = []
        for _ in range(3):
            B = sparse.random(10, 10, density=0.4, random_state=rng)
            blocks.append((B + B.T + sparse.eye(10) * 10).tocsr())
        A = sparse.block_diag(blocks).tocsr()
        pre = block_jacobi(A, [(0, 10), (10, 20), (20, 30)])
        b = np.random.default_rng(seed).normal(size=30)
        result = gmres(A, b, preconditioner=pre, tol=1e-10)
        assert result.converged
        assert result.iterations <= 2

    @settings(max_examples=10, deadline=None)
    @given(seeds, st.floats(0.1, 10.0))
    def test_gmres_scale_equivariance(self, seed, alpha):
        """Solving (aA)x = ab gives the same x."""
        rng = np.random.RandomState(seed % 2**31)
        A = (sparse.random(20, 20, density=0.3, random_state=rng) + sparse.eye(20) * 10).tocsr()
        b = np.random.default_rng(seed).normal(size=20)
        x1 = gmres(A, b, tol=1e-11).x
        x2 = gmres(A * alpha, b * alpha, tol=1e-11).x
        assert np.allclose(x1, x2, atol=1e-7)


class TestCostModelProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 16), st.floats(1.0, 1e9))
    def test_balanced_work_scales_inverse_with_ranks(self, ranks, flops):
        vc = VirtualCluster(DEEP_FLOW, ranks)
        vc.compute_all(np.full(ranks, flops / ranks))
        serial = flops / DEEP_FLOW.flops_rate
        assert vc.elapsed == pytest.approx(serial / ranks)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 20), st.floats(8.0, 1e6))
    def test_allreduce_never_free(self, ranks, nbytes):
        vc = VirtualCluster(ULTRA_HPC_6000, ranks)
        vc.allreduce(nbytes)
        assert vc.elapsed > 0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 16))
    def test_imbalance_dominates(self, ranks):
        """The slowest rank alone determines elapsed time."""
        vc = VirtualCluster(DEEP_FLOW, ranks)
        work = np.zeros(ranks)
        work[ranks - 1] = DEEP_FLOW.flops_rate  # one second on last rank
        vc.compute_all(work)
        assert vc.elapsed == pytest.approx(1.0)


class TestColormapProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0, 1), min_size=2, max_size=20))
    def test_grayscale_monotone(self, values):
        from repro.viz.colormap import GRAYSCALE_CMAP

        arr = np.array(sorted(values))
        rgb = GRAYSCALE_CMAP(arr).astype(int)
        assert np.all(np.diff(rgb[:, 0]) >= 0)
