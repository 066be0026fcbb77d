"""Compute-backend registry, kernel, fallback, and parity tests.

The numba parity block only runs when numba is importable (the CI
``numba`` job); everywhere else the registry/fallback/no-allocation
tests still exercise the full backend seam on the numpy reference.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as spla

from repro.backend import (
    BACKEND_ENV,
    NumpyBackend,
    available_backends,
    get_backend,
    numba_available,
    register_backend,
    reset_backend,
    set_backend,
    use_backend,
)
from repro.backend.registry import _FACTORIES
from repro.fem.bc import DirichletBC
from repro.fem.context import SolveContext
from repro.fem.model import BiomechanicalModel
from repro.mesh.surface import extract_boundary_surface
from repro.solver.preconditioner import (
    BlockJacobiPreconditioner,
    contiguous_block_ranges,
)
from repro.util import ValidationError


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test in this module leaves the process-wide selection clean."""
    yield
    reset_backend()


def _spd_system(n=60, n_blocks=3, seed=0):
    rng = np.random.default_rng(seed)
    A = sparse.random(n, n, density=0.08, random_state=rng, format="csr")
    A = (A + A.T) * 0.5 + sparse.eye(n) * n
    return A.tocsr(), contiguous_block_ranges(n, n_blocks)


class TestRegistry:
    def test_numpy_always_available(self):
        assert available_backends()["numpy"] is True

    def test_default_resolution(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        reset_backend()
        expected = "numba" if numba_available() else "numpy"
        assert get_backend().name == expected

    def test_env_variable_selects(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        reset_backend()
        assert get_backend().name == "numpy"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValidationError):
            set_backend("cuda-quantum")

    def test_use_backend_round_trip(self):
        before = get_backend()
        with use_backend("numpy") as active:
            assert active.name == "numpy"
            assert get_backend() is active
        assert get_backend() is before

    def test_numpy_cannot_be_replaced(self):
        with pytest.raises(ValidationError):
            register_backend("numpy", NumpyBackend)

    def test_register_custom_backend(self):
        class TracerBackend(NumpyBackend):
            name = "tracer"

        register_backend("tracer", TracerBackend)
        try:
            with use_backend("tracer") as active:
                assert active.name == "tracer"
        finally:
            _FACTORIES.pop("tracer", None)

    def test_broken_factory_degrades_with_warning(self):
        def explode():
            raise RuntimeError("driver not found")

        register_backend("gpu", explode)
        try:
            with pytest.warns(RuntimeWarning, match="failed to initialize"):
                active = set_backend("gpu")
            assert active.name == "numpy"
        finally:
            _FACTORIES.pop("gpu", None)


class TestFallback:
    @pytest.mark.skipif(numba_available(), reason="needs numba to be absent")
    def test_missing_numba_degrades_with_warning(self):
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            active = set_backend("numba")
        assert active.name == "numpy"

    @pytest.mark.skipif(numba_available(), reason="needs numba to be absent")
    def test_pipeline_runs_despite_numba_request(self, brain_mesh, monkeypatch):
        """An intraoperative run must survive a missing optional dep."""
        monkeypatch.setenv(BACKEND_ENV, "numba")
        reset_backend()
        surf = extract_boundary_surface(brain_mesh)
        disp = np.zeros((len(surf.mesh_nodes), 3))
        disp[:, 0] = 0.5
        bc = DirichletBC(surf.mesh_nodes, disp)
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            result = BiomechanicalModel(brain_mesh, n_blocks=2).simulate(bc)
        assert result.solver.converged
        assert np.all(np.isfinite(result.displacement))

    def test_disable_jit_env_marks_numba_unavailable(self, monkeypatch):
        monkeypatch.setenv("NUMBA_DISABLE_JIT", "1")
        assert not numba_available()
        assert available_backends()["numba"] is False


class TestFingerprint:
    def test_backend_change_invalidates_context(self, brain_mesh):
        class ShadowBackend(NumpyBackend):
            name = "shadow"

        register_backend("shadow", ShadowBackend)
        try:
            surf = extract_boundary_surface(brain_mesh)
            bc = DirichletBC(surf.mesh_nodes, np.zeros((len(surf.mesh_nodes), 3)))
            materials = BiomechanicalModel(brain_mesh).materials
            fp_args = (brain_mesh, materials, bc.node_ids)
            with use_backend("numpy"):
                fp_numpy = SolveContext.fingerprint(*fp_args)
            with use_backend("shadow"):
                fp_shadow = SolveContext.fingerprint(*fp_args)
            assert fp_numpy != fp_shadow

            context = SolveContext()
            assert context.prepare(fp_numpy) is False  # cold build
            assert context.prepare(fp_numpy) is True  # same backend: hit
            assert context.prepare(fp_shadow) is False  # backend changed
            assert context.stats.invalidations == 1
        finally:
            _FACTORIES.pop("shadow", None)


class TestNoAllocation:
    def test_block_jacobi_reuses_apply_buffer(self):
        A, ranges = _spd_system()
        p = BlockJacobiPreconditioner(A, ranges)
        rng = np.random.default_rng(3)
        out1 = p.solve(rng.normal(size=A.shape[0]))
        out2 = p.solve(rng.normal(size=A.shape[0]))
        assert out1 is out2  # same preallocated buffer, no per-apply allocation

    def test_distributed_block_jacobi_reuses_apply_buffer(self):
        from repro.parallel.distributed import RowBlockMatrix
        from repro.parallel.solver import DistributedBlockJacobi

        A, ranges = _spd_system()
        matrix = RowBlockMatrix.from_csr(A, np.asarray(ranges))
        p = DistributedBlockJacobi(matrix, factorization="lu")
        rng = np.random.default_rng(4)
        out1 = p.solve(rng.normal(size=A.shape[0]))
        out2 = p.solve(rng.normal(size=A.shape[0]))
        assert out1 is out2

    def test_block_jacobi_apply_matches_direct_solves(self):
        A, ranges = _spd_system(seed=5)
        p = BlockJacobiPreconditioner(A, ranges)
        r = np.random.default_rng(6).normal(size=A.shape[0])
        expected = np.empty_like(r)
        for a, b in ranges:
            expected[a:b] = spla.splu(A[a:b, a:b].tocsc()).solve(r[a:b])
        assert np.abs(p.solve(r) - expected).max() < 1e-10


class TestKernelSurface:
    """The numpy reference kernels against first-principles formulations."""

    def test_coo_accumulate_matches_add_at(self, rng):
        nnz = 40
        scatter = rng.integers(0, nnz, size=500)
        values = rng.normal(size=500)
        expected = np.zeros(nnz)
        np.add.at(expected, scatter, values)
        got = get_backend().coo_accumulate(scatter, values, nnz)
        assert got.shape == (nnz,)
        assert np.allclose(got, expected, atol=1e-12)

    def test_csr_matvec_matches_scipy(self, rng):
        A = sparse.random(50, 50, density=0.1, random_state=rng, format="csr")
        x = rng.normal(size=50)
        backend = get_backend()
        assert np.allclose(backend.csr_matvec(A, x), A @ x, atol=1e-12)

    def test_csr_matvec_writes_into_out_view(self, rng):
        A = sparse.random(30, 30, density=0.2, random_state=rng, format="csr")
        x = rng.normal(size=30)
        out = np.zeros(60)
        result = get_backend().csr_matvec(A, x, out=out[15:45])
        assert np.allclose(out[15:45], A @ x, atol=1e-12)
        assert np.allclose(result, A @ x, atol=1e-12)
        assert np.all(out[:15] == 0) and np.all(out[45:] == 0)

    def test_trilinear_gather_matches_eight_corner_sum(self, rng):
        shape = (4, 5, 6)
        channels = [rng.normal(size=shape) for _ in range(3)]
        n = 50
        ijk = np.stack([rng.integers(0, s - 1, n) for s in shape], axis=1)
        f = rng.random((n, 3))
        expected = np.zeros((3, n))
        for a, b, c in np.ndindex(2, 2, 2):
            weight = (
                np.where(a, f[:, 0], 1 - f[:, 0])
                * np.where(b, f[:, 1], 1 - f[:, 1])
                * np.where(c, f[:, 2], 1 - f[:, 2])
            )
            for ch, data in enumerate(channels):
                expected[ch] += weight * data[ijk[:, 0] + a, ijk[:, 1] + b, ijk[:, 2] + c]
        base = np.ravel_multi_index(tuple(ijk.T), shape)
        args = (base, (shape[1] * shape[2], shape[2], 1), f[:, 0], f[:, 1], f[:, 2])
        backend = get_backend()
        got = backend.trilinear_gather([d.ravel() for d in channels], *args)
        assert got.shape == (3, n)
        assert np.allclose(got, expected, atol=1e-12)
        alone = backend.trilinear_gather([channels[1].ravel()], *args)
        assert np.array_equal(alone[0], got[1])

    def test_image_sampling_goes_through_the_backend_seam(self):
        from repro.imaging.resample import trilinear_sample
        from repro.imaging.volume import ImageVolume

        calls = []

        class CountingBackend(NumpyBackend):
            name = "counting"

            def trilinear_gather(self, channels, *args):
                calls.append(len(channels))
                return super().trilinear_gather(channels, *args)

        register_backend("counting", CountingBackend)
        try:
            with use_backend("counting"):
                vol = ImageVolume(np.arange(27.0).reshape(3, 3, 3))
                value = trilinear_sample(vol, np.array([[1.0, 1.0, 1.5]]))
        finally:
            _FACTORIES.pop("counting", None)
        assert calls == [1] and value[0] == pytest.approx(13.5)

    def test_prepare_block_apply_matches_factor_solve(self, rng):
        A, ranges = _spd_system(seed=7)
        factors = [spla.splu(A[a:b, a:b].tocsc()) for a, b in ranges]
        apply = get_backend().prepare_block_apply(ranges, factors)
        r = rng.normal(size=A.shape[0])
        out = np.empty_like(r)
        got = apply(r, out)
        assert got is out
        expected = np.concatenate(
            [factor.solve(r[a:b]) for (a, b), factor in zip(ranges, factors)]
        )
        assert np.abs(got - expected).max() < 1e-10


needs_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not installed (CI numba job covers this)"
)


@needs_numba
class TestNumbaParity:
    """Numpy-vs-numba agreement <= 1e-10 on every kernel and end to end."""

    @pytest.fixture(scope="class")
    def backends(self):
        from repro.backend.numba_backend import NumbaBackend

        return NumpyBackend(), NumbaBackend()

    @pytest.fixture(scope="class")
    def element_batch(self):
        rng = np.random.default_rng(11)
        m = 200
        coords = rng.normal(0, 10.0, (m, 4, 3))
        # Re-draw any near-degenerate tetrahedra deterministically.
        for _ in range(10):
            mats = np.concatenate([np.ones((m, 4, 1)), coords], axis=2)
            bad = np.abs(np.linalg.det(mats)) < 1e-3
            if not bad.any():
                break
            coords[bad] = rng.normal(0, 10.0, (int(bad.sum()), 4, 3))
        return coords

    def test_self_check(self, backends):
        _, nb = backends
        worst = nb.self_check()
        assert worst <= 1e-10
        assert not nb._degraded  # every kernel actually compiled

    def test_shape_gradients_parity(self, backends, element_batch):
        ref, nb = backends
        g0, v0 = ref.shape_gradients(element_batch)
        g1, v1 = nb.shape_gradients(element_batch)
        assert np.abs(g1 - g0).max() <= 1e-10 * max(1.0, np.abs(g0).max())
        assert np.abs(v1 - v0).max() <= 1e-10 * max(1.0, np.abs(v0).max())

    def test_element_stiffness_parity(self, backends, element_batch):
        from repro.fem.element import strain_displacement_matrices

        ref, nb = backends
        g, v = ref.shape_gradients(element_batch)
        B = strain_displacement_matrices(g)
        rng = np.random.default_rng(12)
        D = rng.normal(size=(len(B), 6, 6))
        D = D @ np.transpose(D, (0, 2, 1))
        K0 = ref.element_stiffness_from_B(B, np.abs(v), D)
        K1 = nb.element_stiffness_from_B(B, np.abs(v), D)
        assert np.abs(K1 - K0).max() <= 1e-10 * np.abs(K0).max()

    def test_assembled_matrix_parity(self, brain_mesh):
        from repro.fem.assembly import assemble_stiffness
        from repro.fem.material import BRAIN_HOMOGENEOUS

        with use_backend("numpy"):
            K0 = assemble_stiffness(brain_mesh, BRAIN_HOMOGENEOUS)
        with use_backend("numba"):
            K1 = assemble_stiffness(brain_mesh, BRAIN_HOMOGENEOUS)
        assert (K0.indptr == K1.indptr).all() and (K0.indices == K1.indices).all()
        scale = np.abs(K0.data).max()
        assert np.abs(K1.data - K0.data).max() <= 1e-10 * scale

    def test_csr_matvec_parity(self, backends):
        ref, nb = backends
        rng = np.random.default_rng(13)
        A = sparse.random(300, 300, density=0.05, random_state=rng, format="csr")
        x = rng.normal(size=300)
        y0 = ref.csr_matvec(A, x)
        y1 = nb.csr_matvec(A, x)
        assert np.abs(y1 - y0).max() <= 1e-10 * max(1.0, np.abs(y0).max())

    def test_preconditioner_apply_parity(self, backends):
        ref, nb = backends
        A, ranges = _spd_system(n=120, n_blocks=4, seed=14)
        factors = [spla.splu(A[a:b, a:b].tocsc()) for a, b in ranges]
        r = np.random.default_rng(15).normal(size=A.shape[0])
        out0, out1 = np.empty_like(r), np.empty_like(r)
        y0 = ref.prepare_block_apply(ranges, factors)(r, out0)
        y1 = nb.prepare_block_apply(ranges, factors)(r, out1)
        assert np.abs(y1 - y0).max() <= 1e-10 * max(1.0, np.abs(y0).max())

    def test_full_field_parity(self, brain_mesh):
        surf = extract_boundary_surface(brain_mesh)
        rng = np.random.default_rng(16)
        disp = rng.normal(0, 0.5, (len(surf.mesh_nodes), 3))
        bc = DirichletBC(surf.mesh_nodes, disp)
        model = BiomechanicalModel(brain_mesh, n_blocks=2, tol=1e-12)
        with use_backend("numpy"):
            u0 = model.simulate(bc).displacement
        with use_backend("numba"):
            u1 = model.simulate(bc).displacement
        assert np.abs(u1 - u0).max() <= 1e-10 * max(1.0, np.abs(u0).max())
