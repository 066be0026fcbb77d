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

The invariances need no exact field. With displacement-only boundary
data and no body force the interior solves ``K_ff u_f = -K_fc u_c``, and
``K`` is linear in every element's ``E``: scaling every material's ``E``
by one factor scales both sides, so a field prescribed by a non-affine
boundary does not move, through either solver, to round-off (GMRES's
stopping test is relative, so it takes the same iterations). Scaling one
material's ``E`` alone changes the ratio between materials, and the
field moves; that check is what lets the invariance tests fail.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.fem import (
    BRAIN_HETEROGENEOUS,
    BRAIN_HOMOGENEOUS,
    BiomechanicalModel,
    DirichletBC,
    MaterialMap,
)
from repro.imaging.phantom import Tissue
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

#: Young's-modulus factor of the invariance tests.
E_FACTOR = 7.0
#: Scaling the tumour's E alone moves the field by 0.54 mm on this patch.
ONE_MATERIAL_MOVES_MM = 0.1

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


def _curved_bc(patch):
    """A non-affine field on the patch boundary (max |u| 5.76 mm)."""
    mesh, boundary = patch
    x, y, z = (mesh.nodes - mesh.nodes.mean(axis=0)).T
    field = np.stack([np.sin(y / 15), 0.5 * np.cos(x / 20) * z / 20, x * y / 400], axis=1)
    return DirichletBC(boundary, field[boundary])


def _scaled(materials, label=None):
    """``materials`` with E times :data:`E_FACTOR`: every material's, or ``label``'s only."""

    def scale(material):
        return dataclasses.replace(material, young_modulus=material.young_modulus * E_FACTOR)

    if label is not None:
        mapping = dict(materials.materials)
        mapping[label] = scale(materials.lookup(label))
        return MaterialMap.from_dict(mapping, materials.default)
    return MaterialMap(
        tuple((key, scale(material)) for key, material in materials.materials),
        None if materials.default is None else scale(materials.default),
    )


def _direct(mesh, bc, materials):
    result = BiomechanicalModel(mesh, materials).simulate(bc)
    return result.displacement, result.solver


def _gmres_4_ranks(mesh, bc, materials):
    sim = simulate_parallel(mesh, bc, 4, materials=materials)
    return sim.displacement, sim.solver


SOLVERS = {"direct": _direct, "gmres-4-ranks": _gmres_4_ranks}
MATERIALS = {"homogeneous": BRAIN_HOMOGENEOUS, "heterogeneous": BRAIN_HETEROGENEOUS}


class TestStiffnessScaling:
    @pytest.mark.parametrize("materials", sorted(MATERIALS))
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_scaling_every_modulus_does_not_move_the_field(self, patch, solver, materials):
        bc = _curved_bc(patch)
        solve = SOLVERS[solver]
        base, base_solver = solve(patch[0], bc, MATERIALS[materials])
        scaled, scaled_solver = solve(patch[0], bc, _scaled(MATERIALS[materials]))
        assert base_solver.converged and scaled_solver.converged
        assert scaled_solver.iterations == base_solver.iterations
        assert np.abs(scaled - base).max() <= ROUNDOFF_MM

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_scaling_one_modulus_moves_the_field(self, patch, solver):
        bc = _curved_bc(patch)
        solve = SOLVERS[solver]
        base, _ = solve(patch[0], bc, BRAIN_HETEROGENEOUS)
        stiffer, _ = solve(patch[0], bc, _scaled(BRAIN_HETEROGENEOUS, int(Tissue.TUMOR)))
        assert np.abs(stiffer - base).max() > ONE_MATERIAL_MOVES_MM
