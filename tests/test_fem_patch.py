"""Patch tests: the solvers against fields whose answer is known exactly.

A displacement field the discretization reproduces exactly is prescribed
on the boundary of an irregular patch — the 48x48x36 phantom meshed at
6 mm, every interior node jittered by up to 0.6 mm per axis — and the
solved interior must return it.

Which fields qualify depends on the material. On one homogeneous
material any affine field ``u = A x + t`` has constant stress, so zero
divergence, and is a solution. With per-element ``E, nu`` a general
affine field is not: its stress jumps across material interfaces, and
the solve departs from it by a tenth of a millimetre here. Only an
infinitesimal rigid motion (``A`` skew) has zero stress in every
material, so that is the heterogeneous patch test.

The direct model must hit the field to round-off. GMRES stops at
``DEFAULT_SOLVER_TOL``, so through ``simulate_parallel`` the bound is
the accuracy that tolerance ships on (EXPERIMENTS.md "Solver
tolerance"): the nodal field within 1.41 um of a ``1e-10`` solve at
paper size, 0.54 um on the benchmark system, pinned at 2 um by
``tests/test_solver_tolerance.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fem import BRAIN_HETEROGENEOUS, BRAIN_HOMOGENEOUS, BiomechanicalModel, DirichletBC
from repro.mesh.generator import mesh_labeled_volume
from repro.mesh.surface import extract_boundary_surface
from repro.mesh.tetra import TetrahedralMesh
from repro.parallel import simulate_parallel
from tests.conftest import BRAIN_LABELS

#: The direct solve reproduces the field to round-off (measured 3e-15 to 5e-15 mm).
ROUNDOFF_MM = 1e-10
#: GMRES at the production tolerance (measured 9e-6 to 1.7e-4 mm).
SOLVER_TOL_MM = 2e-3

GENERAL = np.array([[0.010, 0.004, -0.003], [0.002, -0.008, 0.005], [-0.004, 0.003, 0.006]])
W = np.array([0.006, -0.004, 0.008])
SKEW = np.array([[0.0, -W[2], W[1]], [W[2], 0.0, -W[0]], [-W[1], W[0], 0.0]])
SHIFT = np.array([0.1, -0.2, 0.15])

#: (linear part, material map): the two fields each material reproduces.
CASES = {
    "general-homogeneous": (GENERAL, BRAIN_HOMOGENEOUS),
    "skew-heterogeneous": (SKEW, BRAIN_HETEROGENEOUS),
}


@pytest.fixture(scope="module")
def patch(medium_case):
    """The jittered patch and its boundary nodes."""
    mesh = mesh_labeled_volume(medium_case.preop_labels, 6.0, BRAIN_LABELS).mesh
    boundary = extract_boundary_surface(mesh).mesh_nodes
    interior = np.setdiff1d(np.arange(mesh.n_nodes), boundary)
    nodes = mesh.nodes.copy()
    nodes[interior] += np.random.default_rng(0).uniform(-0.6, 0.6, (len(interior), 3))
    jittered = TetrahedralMesh(nodes, mesh.elements, mesh.materials)
    jittered.validate()
    assert len(np.unique(jittered.materials)) > 1  # the heterogeneous map has interfaces
    return jittered, boundary


def _affine(patch, linear):
    mesh, boundary = patch
    field = (mesh.nodes - mesh.nodes.mean(axis=0)) @ linear.T + SHIFT
    return field, DirichletBC(boundary, field[boundary])


class TestDirectModel:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reproduces_the_field_to_roundoff(self, patch, case):
        linear, materials = CASES[case]
        field, bc = _affine(patch, linear)
        result = BiomechanicalModel(patch[0], materials).simulate(bc)
        assert result.solver.converged
        assert np.abs(result.displacement - field).max() <= ROUNDOFF_MM

    def test_general_affine_is_not_a_heterogeneous_solution(self, patch):
        field, bc = _affine(patch, GENERAL)
        result = BiomechanicalModel(patch[0], BRAIN_HETEROGENEOUS).simulate(bc)
        assert np.abs(result.displacement - field).max() > 10 * SOLVER_TOL_MM


class TestParallelGMRES:
    @pytest.mark.parametrize("n_ranks", [1, 4, 16])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_within_the_solver_tolerance(self, patch, case, n_ranks):
        linear, materials = CASES[case]
        field, bc = _affine(patch, linear)
        sim = simulate_parallel(patch[0], bc, n_ranks, materials=materials)
        assert sim.solver.converged
        assert np.abs(sim.displacement - field).max() <= SOLVER_TOL_MM
