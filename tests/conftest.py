"""Shared fixtures: small phantom cases and meshes reused across tests.

Session-scoped because phantom construction and meshing dominate test
runtime; tests must not mutate these objects (copy first).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging.phantom import Tissue, make_neurosurgery_case
from repro.mesh.generator import mesh_labeled_volume

BRAIN_LABELS = (
    int(Tissue.BRAIN),
    int(Tissue.VENTRICLE),
    int(Tissue.FALX),
    int(Tissue.TUMOR),
)


def contiguous_ranges(n: int, n_blocks: int) -> np.ndarray:
    """``(k, 2)`` equal contiguous half-open row ranges tiling ``[0, n)``, no empty one."""
    bounds = np.linspace(0, n, min(n_blocks, n) + 1).astype(int)
    return np.column_stack([bounds[:-1], bounds[1:]])


def block_jacobi(matrix, ranges, factorization: str = "lu"):
    """Block Jacobi over ``ranges`` of a plain sparse matrix (exact block LU by default)."""
    from repro.parallel.distributed import RowBlockMatrix
    from repro.parallel.solver import DistributedBlockJacobi

    return DistributedBlockJacobi(
        RowBlockMatrix.from_csr(matrix, np.asarray(ranges)), factorization=factorization
    )


@pytest.fixture(scope="session")
def small_case():
    """A 32x32x24 neurosurgery case with 5 mm peak shift."""
    return make_neurosurgery_case(shape=(32, 32, 24), shift_mm=5.0, seed=42)


@pytest.fixture(scope="session")
def medium_case():
    """A 48x48x36 case for integration tests needing finer voxels."""
    return make_neurosurgery_case(shape=(48, 48, 36), shift_mm=6.0, seed=43)


@pytest.fixture(scope="session")
def brain_mesher(small_case):
    """Coarse brain mesh (plus locator) of the small case."""
    return mesh_labeled_volume(small_case.preop_labels, 9.0, BRAIN_LABELS)


@pytest.fixture(scope="session")
def brain_mesh(brain_mesher):
    return brain_mesher.mesh


@pytest.fixture(scope="session")
def medium_mesher(medium_case):
    return mesh_labeled_volume(medium_case.preop_labels, 7.0, BRAIN_LABELS)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
