"""Tests for the condensed surface FEM (Bro-Nielsen comparator)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fem.bc import DirichletBC
from repro.fem.condensed import CondensedSurfaceModel
from repro.fem.model import BiomechanicalModel
from repro.mesh.surface import extract_boundary_surface
from repro.util import ShapeError, ValidationError


@pytest.fixture(scope="module")
def setup(brain_mesh_session):
    mesh = brain_mesh_session
    surf = extract_boundary_surface(mesh)
    model = CondensedSurfaceModel(mesh, surf.mesh_nodes)
    return mesh, surf, model


@pytest.fixture(scope="module")
def brain_mesh_session():
    from repro.imaging.phantom import make_neurosurgery_case
    from repro.mesh.generator import mesh_labeled_volume
    from tests.conftest import BRAIN_LABELS

    case = make_neurosurgery_case(shape=(32, 32, 24), shift_mm=5.0, seed=42)
    return mesh_labeled_volume(case.preop_labels, 10.0, BRAIN_LABELS).mesh


class TestCondensedModel:
    def test_matches_full_volumetric_solve(self, setup):
        mesh, surf, model = setup
        rng = np.random.default_rng(0)
        disp = rng.normal(0, 0.8, (len(surf.mesh_nodes), 3))
        bc = DirichletBC(surf.mesh_nodes, disp)
        full = BiomechanicalModel(mesh).simulate(bc)
        condensed = model.update(disp)
        assert np.allclose(condensed, full.displacement, atol=1e-6)

    def test_prescribed_values_exact(self, setup):
        _, surf, model = setup
        disp = np.random.default_rng(1).normal(size=(len(surf.mesh_nodes), 3))
        out = model.update(disp)
        assert np.allclose(out[surf.mesh_nodes], disp)

    def test_linear_field_patch_test(self, setup):
        mesh, surf, model = setup
        A = np.array([[0.002, 0.001, 0.0], [0.0, -0.001, 0.0], [0.001, 0.0, 0.003]])
        field = mesh.nodes @ A.T
        out = model.update(field[surf.mesh_nodes])
        assert np.allclose(out, field, atol=1e-8)

    def test_update_is_linear(self, setup):
        _, surf, model = setup
        rng = np.random.default_rng(2)
        a = rng.normal(size=(len(surf.mesh_nodes), 3))
        b = rng.normal(size=(len(surf.mesh_nodes), 3))
        lhs = model.update(2.0 * a + 3.0 * b)
        rhs = 2.0 * model.update(a) + 3.0 * model.update(b)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_update_from_bc_reorders(self, setup):
        _, surf, model = setup
        rng = np.random.default_rng(3)
        disp = rng.normal(size=(len(surf.mesh_nodes), 3))
        shuffle = rng.permutation(len(surf.mesh_nodes))
        bc = DirichletBC(surf.mesh_nodes[shuffle], disp[shuffle])
        assert np.allclose(model.update_from_bc(bc), model.update(disp))

    def test_update_from_bc_rejects_wrong_set(self, setup):
        _, surf, model = setup
        bc = DirichletBC(surf.mesh_nodes[:-1], np.zeros((len(surf.mesh_nodes) - 1, 3)))
        with pytest.raises(ValidationError):
            model.update_from_bc(bc)

    def test_reports_precompute_cost(self, setup):
        _, _, model = setup
        assert model.precompute_seconds > 0
        assert model.factor_nnz > 0
        assert model.n_interior_dofs > 0

    def test_validation(self, brain_mesh_session):
        with pytest.raises(ValidationError):
            CondensedSurfaceModel(brain_mesh_session, np.array([], dtype=int))
        with pytest.raises(ValidationError):
            CondensedSurfaceModel(brain_mesh_session, np.array([0, 0]))
        with pytest.raises(ValidationError):
            CondensedSurfaceModel(brain_mesh_session, np.array([10**6]))
        with pytest.raises(ValidationError):
            # Prescribing every node leaves nothing to condense.
            CondensedSurfaceModel(
                brain_mesh_session, np.arange(brain_mesh_session.n_nodes)
            )

    def test_update_shape_check(self, setup):
        _, _, model = setup
        with pytest.raises(ShapeError):
            model.update(np.zeros((3, 3)))
