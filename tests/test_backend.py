"""Compute-backend registry, kernel, fallback, and parity tests.

The numba module is checked twice. On every box,
``TestNumbaModuleUnderStub`` imports it under a stand-in ``numba``
(``njit`` returns the function unchanged, ``prange`` is ``range``), so
the kernels' Python bodies and the fallback run in tier-1. Where numba
is installed (the CI ``numba`` job), ``TestNumbaParity`` runs the JIT.
"""

from __future__ import annotations

import importlib
import sys
import types

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as spla

import repro.backend
from repro.backend import (
    NumpyBackend,
    available_backends,
    get_backend,
    numba_available,
    registry,
    reset_backend,
    set_backend,
    use_backend,
)
from repro.backend.numpy_backend import ScipyBlockApply
from repro.fem.bc import DirichletBC
from repro.fem.context import SolveContext
from repro.fem.model import BiomechanicalModel
from repro.mesh.surface import extract_boundary_surface
from repro.parallel.simulation import simulate_parallel
from repro.solver.preconditioner import incomplete_factor
from repro.util import ValidationError
from tests.conftest import block_jacobi, contiguous_ranges


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test in this module leaves the process-wide selection clean."""
    yield
    reset_backend()


def _spd_system(n=60, n_blocks=3, seed=0):
    rng = np.random.default_rng(seed)
    A = sparse.random(n, n, density=0.08, random_state=rng, format="csr")
    A = (A + A.T) * 0.5 + sparse.eye(n) * n
    return A.tocsr(), [(int(a), int(b)) for a, b in contiguous_ranges(n, n_blocks)]


class TestRegistry:
    def test_numpy_always_available(self):
        assert available_backends()["numpy"] is True

    def test_default_resolution(self):
        reset_backend()
        expected = "numba" if numba_available() else "numpy"
        assert get_backend().name == expected

    def test_unknown_backend_raises(self):
        with pytest.raises(ValidationError):
            set_backend("cuda-quantum")

    def test_use_backend_round_trip(self):
        before = get_backend()
        with use_backend("numpy") as active:
            assert active.name == "numpy"
            assert get_backend() is active
        assert get_backend() is before

    def test_broken_factory_degrades_with_warning(self, monkeypatch):
        def explode():
            raise RuntimeError("driver not found")

        monkeypatch.setattr(registry, "numba_available", lambda: True)
        monkeypatch.setattr(registry, "_make_numba", explode)
        with pytest.warns(RuntimeWarning, match="failed to initialize"):
            active = set_backend("numba")
        assert active.name == "numpy"


class TestFallback:
    @pytest.mark.skipif(numba_available(), reason="needs numba to be absent")
    def test_missing_numba_degrades_with_warning(self):
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            active = set_backend("numba")
        assert active.name == "numpy"

    @pytest.mark.skipif(numba_available(), reason="needs numba to be absent")
    def test_pipeline_runs_despite_numba_request(self, brain_mesh):
        """An intraoperative run must survive a missing optional dep."""
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            set_backend("numba")
        surf = extract_boundary_surface(brain_mesh)
        disp = np.zeros((len(surf.mesh_nodes), 3))
        disp[:, 0] = 0.5
        bc = DirichletBC(surf.mesh_nodes, disp)
        result = simulate_parallel(brain_mesh, bc, n_ranks=2)
        assert result.solver.converged
        assert np.all(np.isfinite(result.displacement))

    def test_disable_jit_env_marks_numba_unavailable(self, monkeypatch):
        monkeypatch.setenv("NUMBA_DISABLE_JIT", "1")
        assert not numba_available()
        assert available_backends()["numba"] is False


class TestFingerprint:
    def test_backend_change_invalidates_context(self, brain_mesh, monkeypatch):
        class ShadowBackend(NumpyBackend):
            name = "shadow"

        surf = extract_boundary_surface(brain_mesh)
        bc = DirichletBC(surf.mesh_nodes, np.zeros((len(surf.mesh_nodes), 3)))
        materials = BiomechanicalModel(brain_mesh).materials
        fp_args = (brain_mesh, materials, bc.node_ids)
        with use_backend("numpy"):
            fp_numpy = SolveContext.fingerprint(*fp_args)
        monkeypatch.setattr(registry, "_active", ShadowBackend())
        fp_shadow = SolveContext.fingerprint(*fp_args)
        assert fp_numpy != fp_shadow

        context = SolveContext()
        assert context.prepare(fp_numpy) is False  # cold build
        assert context.prepare(fp_numpy) is True  # same backend: hit
        assert context.prepare(fp_shadow) is False  # backend changed
        assert context.stats.invalidations == 1


class TestNoAllocation:
    def test_block_jacobi_reuses_apply_buffer(self):
        A, ranges = _spd_system()
        p = block_jacobi(A, ranges, factorization="ilu")
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
        p = block_jacobi(A, ranges)
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


FACTORIZE = {"splu": spla.splu, "ilu": incomplete_factor}


@pytest.fixture
def numba_module(monkeypatch):
    """``repro.backend.numba_backend`` imported under a stand-in ``numba``.

    ``njit(...)`` returns the function unchanged and ``prange`` is
    ``range``, so the kernels run as the Python the JIT would compile.
    A real module already imported (where numba is installed) is put
    back afterwards.
    """
    stub = types.ModuleType("numba")
    stub.njit = lambda *args, **kwargs: (lambda fn: fn)
    stub.prange = range
    name = "repro.backend.numba_backend"
    monkeypatch.setitem(sys.modules, "numba", stub)
    monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.delattr(repro.backend, "numba_backend", raising=False)
    yield importlib.import_module(name)
    sys.modules.pop(name, None)
    vars(repro.backend).pop("numba_backend", None)


class TestNumbaModuleUnderStub:
    """The numba kernels' bodies and the fallback, on every box."""

    def test_csr_matvec_matches_numpy(self, numba_module, rng):
        A = sparse.random(40, 60, density=0.2, random_state=rng, format="csr")
        x = rng.normal(size=60)
        out = np.zeros(80)
        nb = numba_module.NumbaBackend()
        nb.csr_matvec(A, x, out=out[20:60])
        assert np.abs(out[20:60] - A @ x).max() <= 1e-12
        assert np.all(out[:20] == 0) and np.all(out[60:] == 0)
        assert np.abs(nb.csr_matvec(A, x) - A @ x).max() <= 1e-12
        assert not nb._degraded

    @pytest.mark.parametrize("factorize", sorted(FACTORIZE))
    def test_block_lu_apply_matches_numpy(self, numba_module, factorize):
        A, ranges = _spd_system(n=120, n_blocks=4, seed=14)
        factors = [FACTORIZE[factorize](A[a:b, a:b].tocsc()) for a, b in ranges]
        nb = numba_module.NumbaBackend()
        apply = nb.prepare_block_apply(ranges, factors)
        assert isinstance(apply, numba_module.JitBlockApply)  # passed its probe
        r = np.random.default_rng(15).normal(size=A.shape[0])
        out = np.empty_like(r)
        assert apply(r, out) is out
        want = ScipyBlockApply(ranges, factors)(r, np.empty_like(r))
        assert np.abs(out - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
        assert not nb._degraded

    def test_self_check(self, numba_module):
        nb = numba_module.NumbaBackend()
        assert nb.self_check() <= 1e-10
        assert not nb._degraded

    @pytest.mark.parametrize("failure", ["raises", "fails the probe"])
    def test_a_failing_block_apply_is_marked_degraded(
        self, numba_module, monkeypatch, failure
    ):
        def kernel(*args):
            if failure == "raises":
                raise TypeError("no matching definition")
            r, out = args[-2:]
            out[:] = r  # the identity: not the factors' solve
            return out

        monkeypatch.setattr(numba_module, "_block_lu_apply", kernel)
        A, ranges = _spd_system(seed=7)
        factors = [spla.splu(A[a:b, a:b].tocsc()) for a, b in ranges]
        nb = numba_module.NumbaBackend()
        with pytest.warns(RuntimeWarning, match="block_apply"):
            apply = nb.prepare_block_apply(ranges, factors)
        assert isinstance(apply, ScipyBlockApply)
        assert nb._degraded == {"block_apply"}
        # The preflight builds a block apply too, which is what fails
        # TestNumbaParity.test_self_check when the kernel stops compiling.
        fresh = numba_module.NumbaBackend()
        with pytest.warns(RuntimeWarning, match="block_apply"):
            assert fresh.self_check() <= 1e-10
        assert fresh._degraded == {"block_apply"}

    def test_a_failing_matvec_is_marked_degraded(self, numba_module, monkeypatch, rng):
        def kernel(*args):
            raise TypeError("no matching definition")

        monkeypatch.setattr(numba_module, "_csr_matvec", kernel)
        A = sparse.random(30, 30, density=0.2, random_state=rng, format="csr")
        x = rng.normal(size=30)
        nb = numba_module.NumbaBackend()
        with pytest.warns(RuntimeWarning, match="csr_matvec"):
            y = nb.csr_matvec(A, x)
        assert np.abs(y - A @ x).max() <= 1e-12
        assert nb._degraded == {"csr_matvec"}


needs_numba = pytest.mark.skipif(
    not numba_available(), reason="numba not installed (CI numba job covers this)"
)


@needs_numba
class TestNumbaParity:
    """Numpy-vs-numba agreement <= 1e-10 on both kernels and end to end."""

    @pytest.fixture(scope="class")
    def backends(self):
        from repro.backend.numba_backend import NumbaBackend

        return NumpyBackend(), NumbaBackend()

    def test_self_check(self, backends):
        _, nb = backends
        worst = nb.self_check()
        assert worst <= 1e-10
        assert not nb._degraded  # both kernels compiled, the block apply passed its probe

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
        # Two ranks of exact block LU: the block apply and the CSR mat-vec
        # of the active backend drive a whole GMRES solve.
        def solve():
            return simulate_parallel(
                brain_mesh, bc, n_ranks=2, tol=1e-12, factorization="lu"
            ).displacement

        with use_backend("numpy"):
            u0 = solve()
        with use_backend("numba"):
            u1 = solve()
        assert np.abs(u1 - u0).max() <= 1e-10 * max(1.0, np.abs(u0).max())
