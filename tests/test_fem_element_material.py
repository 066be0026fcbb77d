"""Tests for materials and element matrices (analytic FEM invariants)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fem import assembly
from repro.fem.element import (
    element_strains,
    element_stress,
    shape_function_gradients,
    strain_displacement_matrices,
)
from repro.fem.material import (
    BRAIN_HETEROGENEOUS,
    BRAIN_HOMOGENEOUS,
    BRAIN_TISSUE,
    LinearElasticMaterial,
    MaterialMap,
)
from repro.imaging.phantom import Tissue
from repro.util import ShapeError, ValidationError


class TestMaterial:
    def test_lame_constants(self):
        m = LinearElasticMaterial("m", 1000.0, 0.25)
        assert m.lame_mu == pytest.approx(400.0)
        assert m.lame_lambda == pytest.approx(400.0)

    def test_elasticity_matrix_symmetric_positive(self):
        d = BRAIN_TISSUE.elasticity_matrix()
        assert np.allclose(d, d.T)
        assert np.all(np.linalg.eigvalsh(d) > 0)

    def test_rejects_bad_poisson(self):
        with pytest.raises(ValidationError):
            LinearElasticMaterial("bad", 1.0, 0.5)
        with pytest.raises(ValidationError):
            LinearElasticMaterial("bad", 1.0, -1.0)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValidationError):
            LinearElasticMaterial("bad", 0.0, 0.3)

    def test_uniaxial_stress_recovers_modulus(self):
        """sigma = D eps for uniaxial strain then E from compliance."""
        m = LinearElasticMaterial("m", 2000.0, 0.3)
        d = m.elasticity_matrix()
        compliance = np.linalg.inv(d)
        # Uniaxial stress sigma_xx = 1: eps_xx = 1/E.
        eps = compliance @ np.array([1.0, 0, 0, 0, 0, 0])
        assert eps[0] == pytest.approx(1.0 / 2000.0)
        assert eps[1] == pytest.approx(-0.3 / 2000.0)

    def test_material_map_lookup_and_default(self):
        assert BRAIN_HOMOGENEOUS.lookup(int(Tissue.BRAIN)) is BRAIN_TISSUE
        assert BRAIN_HOMOGENEOUS.lookup(999) is BRAIN_TISSUE
        hetero = BRAIN_HETEROGENEOUS
        assert hetero.lookup(int(Tissue.FALX)).young_modulus > BRAIN_TISSUE.young_modulus

    def test_material_map_missing_without_default(self):
        empty = MaterialMap((), default=None)
        with pytest.raises(ValidationError):
            empty.lookup(1)

    def test_elasticity_for_elements_gathers(self):
        labels = np.array([int(Tissue.BRAIN), int(Tissue.FALX), int(Tissue.BRAIN)])
        d = BRAIN_HETEROGENEOUS.elasticity_for_elements(labels)
        assert d.shape == (3, 6, 6)
        assert np.allclose(d[0], d[2])
        assert not np.allclose(d[0], d[1])


def reference_tet(scale=1.0):
    return scale * np.array(
        [[[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    )


class TestShapeFunctions:
    def test_gradients_sum_to_zero(self):
        """Partition of unity: sum of shape gradients vanishes."""
        g, _ = shape_function_gradients(reference_tet())
        assert np.allclose(g.sum(axis=1), 0.0)

    def test_reference_tet_gradients(self):
        g, v = shape_function_gradients(reference_tet())
        assert v[0] == pytest.approx(1.0 / 6.0)
        assert np.allclose(g[0, 1], [1, 0, 0])
        assert np.allclose(g[0, 2], [0, 1, 0])
        assert np.allclose(g[0, 3], [0, 0, 1])
        assert np.allclose(g[0, 0], [-1, -1, -1])

    def test_gradients_scale_inverse_with_size(self):
        g1, _ = shape_function_gradients(reference_tet(1.0))
        g2, _ = shape_function_gradients(reference_tet(2.0))
        assert np.allclose(g2, g1 / 2.0)

    def test_degenerate_raises(self):
        flat = np.zeros((1, 4, 3))
        with pytest.raises(ValidationError):
            shape_function_gradients(flat)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**30))
    def test_property_linear_field_exact_gradient(self, seed):
        """Shape interpolation reproduces any linear field's gradient."""
        rng = np.random.default_rng(seed)
        coords = rng.normal(0, 10, (1, 4, 3))
        g, v = shape_function_gradients(coords)
        if abs(v[0]) < 1e-3:
            return  # nearly degenerate draw
        a = rng.normal(size=3)
        nodal = coords[0] @ a  # linear field at nodes
        grad = (g[0] * nodal[:, None]).sum(axis=0)
        assert np.allclose(grad, a, atol=1e-8 * (1 + np.abs(a).max()))


def _frozen_inverse_gradients(coords):
    """The batched-inverse body ``shape_function_gradients`` had before the
    closed form, kept as its oracle: the ``[1 x y z]`` node matrix's
    inverse columns are the shape functions' coefficients."""
    coords = np.asarray(coords, dtype=float)
    mats = np.concatenate([np.ones((coords.shape[0], 4, 1)), coords], axis=2)
    det = np.linalg.det(mats)
    inv = np.linalg.inv(mats)
    return np.transpose(inv[:, 1:4, :], (0, 2, 1)), det / 6.0


def _relative_gradient_error(coords):
    g, v = shape_function_gradients(coords)
    g0, v0 = _frozen_inverse_gradients(coords)
    scale = np.abs(g0).max(axis=(1, 2))
    return (
        (np.abs(g - g0).max(axis=(1, 2)) / scale).max(),
        (np.abs(v - v0) / np.abs(v0)).max(),
    )


class TestClosedFormGradients:
    """The closed-form gradients against the batched-inverse oracle."""

    def test_well_shaped(self):
        rng = np.random.default_rng(3)
        coords = reference_tet(4.0) + rng.uniform(-0.8, 0.8, (500, 4, 3))
        coords += rng.uniform(-100, 100, (500, 1, 3))  # away from the origin
        grad_err, vol_err = _relative_gradient_error(coords)
        assert grad_err <= 1e-14 and vol_err <= 1e-14

    @pytest.mark.parametrize("height", [1e-3, 1e-6])
    def test_slivers(self, height):
        # Four nearly coplanar nodes: two opposite edges of a unit square
        # lifted apart by ``height``.
        rng = np.random.default_rng(5)
        base = np.array([[0.0, 0, 0], [1, 1, 0], [1, 0, height], [0, 1, height]])
        coords = base * rng.uniform(0.5, 2.0, (200, 1, 1)) + rng.uniform(-5, 5, (200, 1, 3))
        grad_err, vol_err = _relative_gradient_error(coords)
        assert grad_err <= 1e-14 and vol_err <= 1e-14

    def test_inverted(self):
        rng = np.random.default_rng(7)
        coords = reference_tet(2.0) + rng.uniform(-0.5, 0.5, (200, 4, 3))
        inverted = coords[:, [0, 2, 1, 3]]
        g, v = shape_function_gradients(inverted)
        assert np.all(v < 0)
        grad_err, vol_err = _relative_gradient_error(inverted)
        assert grad_err <= 1e-14 and vol_err <= 1e-14
        # Swapping two nodes swaps their gradients and flips the volume only.
        g_pos, v_pos = shape_function_gradients(coords)
        assert np.allclose(g, g_pos[:, [0, 2, 1, 3]], rtol=1e-14, atol=0)
        assert np.allclose(v, -v_pos, rtol=1e-14, atol=0)

    def test_zero_volume_raises(self):
        coplanar = np.array([[[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]])
        well = reference_tet()
        with pytest.raises(ValidationError):
            shape_function_gradients(np.concatenate([well, coplanar]))

    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            shape_function_gradients(np.zeros((2, 3, 3)))

    def test_global_stiffness_matches_the_oracle(self, brain_mesh, monkeypatch):
        K = assembly.assemble_stiffness(brain_mesh, BRAIN_HETEROGENEOUS).tocsr()
        monkeypatch.setattr(assembly, "shape_function_gradients", _frozen_inverse_gradients)
        K0 = assembly.assemble_stiffness(brain_mesh, BRAIN_HETEROGENEOUS).tocsr()
        assert np.array_equal(K.indices, K0.indices)
        assert np.array_equal(K.indptr, K0.indptr)
        assert np.abs(K.data - K0.data).max() <= 1e-14 * np.abs(K0.data).max()


class TestStrainDisplacement:
    def test_rigid_translation_zero_strain(self):
        g, _ = shape_function_gradients(reference_tet())
        u = np.tile([0.3, -0.2, 0.7], (1, 4, 1))
        strains = element_strains(g, u)
        assert np.allclose(strains, 0.0)

    def test_linearized_rotation_zero_strain(self):
        g, _ = shape_function_gradients(reference_tet())
        w = np.array([0.1, -0.05, 0.2])
        u = np.cross(np.broadcast_to(w, (4, 3)), reference_tet()[0])[None]
        strains = element_strains(g, u)
        assert np.allclose(strains, 0.0, atol=1e-12)

    def test_uniform_stretch(self):
        g, _ = shape_function_gradients(reference_tet())
        u = reference_tet() * np.array([0.01, 0.0, 0.0])  # u_x = 0.01 x
        strains = element_strains(g, u)
        assert strains[0, 0] == pytest.approx(0.01)
        assert np.allclose(strains[0, 1:], 0.0, atol=1e-14)

    def test_simple_shear(self):
        g, _ = shape_function_gradients(reference_tet())
        coords = reference_tet()[0]
        u = np.zeros((1, 4, 3))
        u[0, :, 0] = 0.02 * coords[:, 1]  # u_x = gamma * y
        strains = element_strains(g, u)
        assert strains[0, 3] == pytest.approx(0.02)  # engineering gamma_xy

    def test_stress_from_strain(self):
        d = BRAIN_TISSUE.elasticity_matrix()[None]
        eps = np.array([[0.01, 0, 0, 0, 0, 0]])
        sigma = element_stress(eps, d)
        assert sigma[0, 0] == pytest.approx((BRAIN_TISSUE.lame_lambda + 2 * BRAIN_TISSUE.lame_mu) * 0.01)

    def test_B_shape(self):
        g, _ = shape_function_gradients(reference_tet())
        assert strain_displacement_matrices(g).shape == (1, 6, 12)
