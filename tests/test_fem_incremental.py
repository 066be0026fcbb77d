"""Tests for incremental large-deformation simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fem.bc import DirichletBC
from repro.fem.incremental import simulate_incremental
from repro.fem.model import BiomechanicalModel
from repro.mesh.surface import extract_boundary_surface
from repro.util import ValidationError


@pytest.fixture(scope="module")
def mesh():
    from repro.imaging.phantom import make_neurosurgery_case
    from repro.mesh.generator import mesh_labeled_volume
    from tests.conftest import BRAIN_LABELS

    case = make_neurosurgery_case(shape=(28, 28, 22), shift_mm=5.0, seed=42)
    return mesh_labeled_volume(case.preop_labels, 11.0, BRAIN_LABELS).mesh


class TestIncremental:
    def test_one_step_equals_linear(self, mesh):
        surf = extract_boundary_surface(mesh)
        rng = np.random.default_rng(0)
        disp = rng.normal(0, 0.5, (len(surf.mesh_nodes), 3))
        bc = DirichletBC(surf.mesh_nodes, disp)
        linear = BiomechanicalModel(mesh).simulate(bc)
        incremental = simulate_incremental(mesh, bc, n_steps=1)
        assert np.array_equal(incremental.displacement, linear.displacement)

    def test_small_load_converges_to_linear(self, mesh):
        """For small deformations, many steps ~ one step."""
        surf = extract_boundary_surface(mesh)
        rng = np.random.default_rng(1)
        disp = rng.normal(0, 0.05, (len(surf.mesh_nodes), 3))  # tiny
        bc = DirichletBC(surf.mesh_nodes, disp)
        one = simulate_incremental(mesh, bc, n_steps=1)
        many = simulate_incremental(mesh, bc, n_steps=4)
        scale = np.abs(one.displacement).max()
        assert np.abs(many.displacement - one.displacement).max() < 0.02 * scale

    def test_prescribed_totals_exact(self, mesh):
        surf = extract_boundary_surface(mesh)
        rng = np.random.default_rng(2)
        disp = rng.normal(0, 1.0, (len(surf.mesh_nodes), 3))
        bc = DirichletBC(surf.mesh_nodes, disp)
        result = simulate_incremental(mesh, bc, n_steps=3)
        assert np.allclose(result.displacement[surf.mesh_nodes], disp, atol=1e-7)

    def test_full_boundary_rotation_is_exact_for_both(self, mesh):
        """Rotating the ENTIRE boundary: the displacement field
        ``u = (R - I) x`` is linear in x and divergence-free in stress,
        so even the one-step (linear) model reproduces it exactly —
        geometric nonlinearity only matters for partial constraints."""
        surf = extract_boundary_surface(mesh)
        center = mesh.nodes.mean(axis=0)
        angle = np.deg2rad(25.0)
        c, s = np.cos(angle), np.sin(angle)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        disp = (mesh.nodes - center) @ R.T + center - mesh.nodes
        bc = DirichletBC(surf.mesh_nodes, disp[surf.mesh_nodes])
        linear = simulate_incremental(mesh, bc, n_steps=1)
        assert np.abs(linear.displacement - disp).max() < 1e-6

    def test_partial_rotation_geometric_nonlinearity(self, mesh):
        """Rotating only the upper boundary while pinning the lower one:
        the incremental (geometry-updating) solution departs from the
        one-step linear solution, and refining the step count converges."""
        surf = extract_boundary_surface(mesh)
        center = mesh.nodes.mean(axis=0)
        heights = mesh.nodes[surf.mesh_nodes, 2]
        cut = np.median(heights)
        upper = surf.mesh_nodes[heights >= cut]
        lower = surf.mesh_nodes[heights < cut]
        angle = np.deg2rad(30.0)
        c, s = np.cos(angle), np.sin(angle)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        disp_upper = (mesh.nodes[upper] - center) @ R.T + center - mesh.nodes[upper]
        nodes = np.concatenate([upper, lower])
        disp = np.vstack([disp_upper, np.zeros((len(lower), 3))])
        bc = DirichletBC(nodes, disp)

        linear = simulate_incremental(mesh, bc, n_steps=1)
        ten = simulate_incremental(mesh, bc, n_steps=10)
        fourteen = simulate_incremental(mesh, bc, n_steps=14)

        scale = np.abs(ten.displacement).max()
        departure = np.abs(ten.displacement - linear.displacement).max()
        refinement = np.abs(fourteen.displacement - ten.displacement).max()
        assert departure > 5.0 * refinement  # real nonlinearity, converged steps
        assert departure > 0.02 * scale
        # Geometry stayed valid throughout (validate() ran per step).
        assert ten.final_mesh is not None

    def test_validates_steps(self, mesh):
        surf = extract_boundary_surface(mesh)
        bc = DirichletBC(surf.mesh_nodes, np.zeros((len(surf.mesh_nodes), 3)))
        with pytest.raises(ValidationError):
            simulate_incremental(mesh, bc, n_steps=0)


def _deformed_volume(mesh, displacement):
    from repro.mesh.tetra import TetrahedralMesh

    deformed = TetrahedralMesh(
        mesh.nodes + displacement, mesh.elements, mesh.materials
    )
    return deformed.total_volume()
