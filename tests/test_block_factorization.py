"""``factor_blocks``: the one block factorization, run side by side.

Every block preconditioner factors through
:func:`repro.solver.preconditioner.factor_blocks`, which hands the blocks
to the calling thread plus one helper thread per spare core. The factors
must be the per-block loop's, bit for bit, in block order; an error must
be the loop's error; and no thread may outlive the call.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as spla

from repro.backend import get_backend
from repro.fem.bc import DirichletBC
from repro.fem.material import BRAIN_HOMOGENEOUS
from repro.mesh.generator import mesh_labeled_volume
from repro.mesh.partition import partition_block
from repro.mesh.surface import extract_boundary_surface
from repro.parallel.assembly import build_distributed_system
from repro.parallel.decomposition import Decomposition
from repro.parallel.solver import DistributedBlockJacobi, DistributedRAS
from repro.solver import preconditioner
from repro.solver.preconditioner import (
    ILU_COLUMN_ORDER,
    ILU_DROP_TOL,
    factor_blocks,
    incomplete_factor,
)
from repro.util import ValidationError
from tests.conftest import BRAIN_LABELS, block_jacobi


def _frozen_factor_loop(blocks, factorization):
    """The per-block loop every block preconditioner ran, frozen verbatim
    when ``factor_blocks`` replaced the three copies of it. It pins
    bit-identity: every factor ``factor_blocks`` returns must equal this
    loop's in ``L``, ``U``, ``perm_r`` and ``perm_c``, in block order."""
    if factorization not in ("ilu", "lu"):
        raise ValidationError(f"unknown factorization {factorization!r}")
    factors = []
    for block in blocks:
        factors.append(spla.splu(block) if factorization == "lu" else incomplete_factor(block))
    return factors


def _same_factor(x: spla.SuperLU, y: spla.SuperLU) -> bool:
    return all(
        np.array_equal(getattr(getattr(x, m), f), getattr(getattr(y, m), f))
        for m in ("L", "U")
        for f in ("data", "indices", "indptr")
    ) and np.array_equal(x.perm_r, y.perm_r) and np.array_equal(x.perm_c, y.perm_c)


def _laplacian_3d(n: int) -> sparse.csc_matrix:
    e = np.ones(n)
    t = sparse.diags([-e[:-1], 2.0 * e, -e[:-1]], [-1, 0, 1])
    i = sparse.identity(n)
    return (
        sparse.kron(sparse.kron(t, i), i)
        + sparse.kron(sparse.kron(i, t), i)
        + sparse.kron(sparse.kron(i, i), t)
    ).tocsc()


@pytest.fixture
def cores(monkeypatch):
    """Set the usable core count ``factor_blocks`` sees."""

    def set_cores(n: int) -> None:
        monkeypatch.setattr(preconditioner, "usable_cores", lambda: n)

    return set_cores


@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread started while the test runs, by name."""
    started: list[str] = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


@pytest.fixture(scope="module")
def fem_systems(small_case):
    """The 13,065-equation phantom system split over 4 and 16 ranks."""
    mesh = mesh_labeled_volume(small_case.preop_labels, 5.0, BRAIN_LABELS).mesh
    nodes = extract_boundary_surface(mesh).mesh_nodes
    rng = np.random.default_rng(7)
    systems = {}
    for n_ranks in (4, 16):
        dec = Decomposition.from_partition(mesh, partition_block(mesh, n_ranks))
        bc = DirichletBC(dec.old_to_new[nodes], rng.normal(0, 1.0, (len(nodes), 3)))
        matrix = build_distributed_system(dec, BRAIN_HOMOGENEOUS, bc).matrix
        blocks = [matrix.local[k][:, a:b].tocsc() for k, (a, b) in enumerate(matrix.ranges)]
        # Unequal blocks, so a factor returned out of order cannot pass.
        assert len({block.shape[0] for block in blocks}) > 1
        systems[n_ranks] = (matrix, blocks)
    return systems


class TestBitIdentity:
    @pytest.mark.parametrize("n_cores", [1, 2, 4])
    @pytest.mark.parametrize("n_ranks", [4, 16])
    @pytest.mark.parametrize("factorization", ["ilu", "lu"])
    def test_equals_the_frozen_loop(self, fem_systems, cores, factorization, n_ranks, n_cores):
        _, blocks = fem_systems[n_ranks]
        cores(n_cores)
        got = factor_blocks(blocks, factorization)
        oracle = _frozen_factor_loop(blocks, factorization)
        assert len(got) == len(oracle) == n_ranks
        assert all(_same_factor(x, y) for x, y in zip(got, oracle))

    @pytest.mark.parametrize("n_ranks", [4, 16])
    @pytest.mark.parametrize("factorization", ["ilu", "lu"])
    def test_block_jacobi_applies_the_oracle_factors(
        self, fem_systems, cores, factorization, n_ranks
    ):
        matrix, blocks = fem_systems[n_ranks]
        cores(4)
        r = np.random.default_rng(3).normal(size=matrix.n)
        ranges = [(int(a), int(b)) for a, b in matrix.ranges]
        expected = get_backend().prepare_block_apply(
            ranges, _frozen_factor_loop(blocks, factorization)
        )(r, np.empty(matrix.n))
        got = DistributedBlockJacobi(matrix, factorization=factorization).solve(r)
        assert np.array_equal(got, expected)

    def test_serial_block_jacobi_applies_the_oracle_factors(self, fem_systems, cores):
        # A serial caller's block Jacobi: exact LU blocks over a plain CSR
        # matrix, split by ``RowBlockMatrix.from_csr``.
        matrix, blocks = fem_systems[4]
        cores(4)
        ranges = [(int(a), int(b)) for a, b in matrix.ranges]
        r = np.random.default_rng(4).normal(size=matrix.n)
        expected = get_backend().prepare_block_apply(
            ranges, _frozen_factor_loop(blocks, "lu")
        )(r, np.empty(matrix.n))
        got = block_jacobi(matrix.to_csr(), ranges).solve(r)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("factorization", ["ilu", "lu"])
    def test_ras_applies_the_oracle_factors(self, fem_systems, cores, factorization):
        matrix, _ = fem_systems[4]
        cores(4)
        csr = matrix.to_csr()
        ras = DistributedRAS(matrix, overlap=1, factorization=factorization)
        blocks = [csr[grown, :][:, grown].tocsc() for grown in ras.subdomains]
        r = np.random.default_rng(5).normal(size=matrix.n)
        expected = np.empty(matrix.n)
        for (a, b), grown, factor in zip(
            matrix.ranges, ras.subdomains, _frozen_factor_loop(blocks, factorization)
        ):
            expected[a:b] = factor.solve(r[grown])[np.searchsorted(grown, np.arange(a, b))]
        assert np.array_equal(ras.solve(r), expected)

    def test_every_block_preconditioner_factors_through_it(self, fem_systems, monkeypatch):
        matrix, _ = fem_systems[4]
        calls = []
        for name, factor in list(preconditioner._FACTORIZATIONS.items()):
            monkeypatch.setitem(
                preconditioner._FACTORIZATIONS, name,
                lambda block, name=name, factor=factor: calls.append(name) or factor(block),
            )
        DistributedBlockJacobi(matrix)
        block_jacobi(matrix.to_csr(), matrix.ranges)
        DistributedRAS(matrix, factorization="ilu")
        assert calls.count("ilu") == 8 and calls.count("lu") == 4

    @pytest.mark.parametrize("n_ranks", [4, 16])
    def test_fill_cap_does_not_bind(self, fem_systems, n_ranks):
        _, blocks = fem_systems[n_ranks]
        for block in blocks:
            loose = spla.spilu(
                block, drop_tol=ILU_DROP_TOL, fill_factor=10.0, permc_spec=ILU_COLUMN_ORDER
            )
            assert _same_factor(incomplete_factor(block), loose)


class TestThreads:
    def test_concurrent_stress(self, cores):
        """4 threads, 20 rounds, 12 Laplacians of 6 sizes, ILU and LU: no bit moves."""
        cores(4)
        blocks = [_laplacian_3d(n) for n in (6, 9, 7, 10, 8, 11) * 2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
        try:
            for factorization in ("ilu", "lu"):
                oracle = _frozen_factor_loop(blocks, factorization)
                mismatches = 0
                for _ in range(20):
                    got = factor_blocks(blocks, factorization)
                    mismatches += sum(not _same_factor(x, y) for x, y in zip(got, oracle))
                assert mismatches == 0
        finally:
            sys.setswitchinterval(interval)

    def test_singular_block_raises_the_loops_error(self, cores, monkeypatch):
        singular = sparse.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(RuntimeError) as loop_error:
            _frozen_factor_loop([singular], "lu")
        blocks = [_laplacian_3d(6), singular, _laplacian_3d(7), _laplacian_3d(5)]
        ran_on: list[str] = []
        monkeypatch.setitem(
            preconditioner._FACTORIZATIONS, "lu",
            lambda block: (
                block is singular and ran_on.append(threading.current_thread().name)
            ) or spla.splu(block),
        )
        cores(4)
        before = threading.active_count()
        for _ in range(40):
            with pytest.raises(RuntimeError) as error:
                factor_blocks(blocks, "lu")
            assert str(error.value) == str(loop_error.value)
            assert threading.active_count() == before
        assert len(ran_on) == 40
        assert any(name != threading.current_thread().name for name in ran_on)

    def test_first_failing_block_wins(self, cores):
        cores(4)
        bad = sparse.csc_matrix((3, 3))
        blocks = [_laplacian_3d(5), bad, _laplacian_3d(5), sparse.csc_matrix((2, 3))]
        with pytest.raises(Exception) as loop_error:
            _frozen_factor_loop(blocks, "lu")
        for _ in range(10):
            with pytest.raises(type(loop_error.value)) as error:
                factor_blocks(blocks, "lu")
            assert str(error.value) == str(loop_error.value)

    @pytest.mark.parametrize(
        "n_blocks, n_cores, helpers", [(1, 4, 0), (5, 1, 0), (2, 4, 1), (6, 3, 2)]
    )
    def test_helpers_are_one_per_spare_core(
        self, cores, thread_starts, n_blocks, n_cores, helpers
    ):
        cores(n_cores)
        blocks = [_laplacian_3d(4 + i) for i in range(n_blocks)]
        before = threading.active_count()
        got = factor_blocks(blocks, "ilu")
        assert len(thread_starts) == helpers
        assert threading.active_count() == before
        assert [f.shape[0] for f in got] == [b.shape[0] for b in blocks]

    def test_no_blocks(self, thread_starts):
        assert factor_blocks([], "lu") == []
        assert thread_starts == []

    def test_unknown_factorization_rejected(self):
        with pytest.raises(ValidationError):
            factor_blocks([_laplacian_3d(3)], "cholesky")

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity API")
    def test_usable_cores_is_the_affinity_mask(self):
        assert preconditioner.usable_cores() == len(os.sched_getaffinity(0)) >= 1
