"""Convergence order of the linear tetrahedra against a manufactured solution.

The field ``u = alpha (x - x0)^2 e_x`` has ``eps_xx = 2 alpha (x - x0)`` and
no other strain, so ``div sigma = 2 alpha (lambda + 2 mu) e_x`` and it solves
the Navier equations ``div sigma + f = 0`` under the uniform body force
``f = -2 alpha (lambda + 2 mu) e_x``. It is prescribed on every boundary node
of a box meshed at three cell sizes, each half the last, and the direct
model (one sparse LU, round-off accurate) solves the interior.

On the mesher's regular lattice the solve returns this field's nodal values
to round-off (the discrete equations of a one-dimensional quadratic are
exact at the nodes), so the errors would be the interpolant's whatever the
material. Every interior node is therefore moved by up to a fifth of a cell
per axis (a fixed seed; no element turns over): then the nodal values are
the solve's own, and the orders measure the discretization.

The errors are integrated exactly on each element: the displacement error
is a quadratic in the barycentric coordinates, so its square integrates
with the monomial moments of the tetrahedron, and the strain error is
linear, so its energy density integrates with the four-point rule of
degree two. Theory for linear elements: O(h^2) in L2, O(h) in energy.
Linear tetrahedra lock as nu -> 1/2; the second material (nu = 0.49,
Miller/Joldes/Warfield's brain) is where that would show first.
"""

from __future__ import annotations

from itertools import product
from math import factorial

import numpy as np

from repro.fem import BiomechanicalModel, DirichletBC, MaterialMap
from repro.fem.element import shape_function_gradients, strain_displacement_matrices
from repro.fem.material import LinearElasticMaterial
from repro.imaging.volume import ImageVolume
from repro.mesh.generator import mesh_labeled_volume
from repro.mesh.surface import extract_boundary_surface
from repro.mesh.tetra import TetrahedralMesh

ALPHA = 0.01  # 1/mm: up to 8.4 mm of displacement in the 41 mm box
X0 = 12.0  # mm, off-centre so the field is not symmetric in the box
#: Lattice cells along each edge of the box, each level half the last.
CELLS = (4, 8, 16)
BOX_MM = 41.0
#: Largest move of an interior node per axis, in cells.
JITTER = 0.2


def _moments() -> np.ndarray:
    """``M[i, j, k, l]`` = the integral of ``l_i l_j l_k l_l`` over a unit-volume tet."""
    m = np.empty((4, 4, 4, 4))
    for idx in product(range(4), repeat=4):
        powers = np.bincount(idx, minlength=4)
        m[idx] = 6.0 * np.prod([factorial(int(p)) for p in powers]) / factorial(7)
    return m


#: Barycentric points and equal weights of the degree-2 four-point rule.
_A, _B = 0.5854101966249685, 0.1381966011250105
GAUSS4 = np.full((4, 4), _B) + np.eye(4) * (_A - _B)


def _exact(points: np.ndarray) -> np.ndarray:
    u = np.zeros_like(points)
    u[..., 0] = ALPHA * (points[..., 0] - X0) ** 2
    return u


def _errors(material: LinearElasticMaterial, cells: int) -> tuple[float, float, float]:
    """``(h, L2 error, energy error)`` of the solve at ``cells`` per edge."""
    labels = ImageVolume(np.ones((41, 41, 41), dtype=np.int32), (1.0, 1.0, 1.0))
    lattice = mesh_labeled_volume(labels, BOX_MM / cells, (1,)).mesh
    boundary = extract_boundary_surface(lattice).mesh_nodes
    h = BOX_MM / cells
    nodes = lattice.nodes.copy()
    interior = np.ones(len(nodes), dtype=bool)
    interior[boundary] = False
    rng = np.random.default_rng(0)
    nodes[interior] += rng.uniform(-JITTER * h, JITTER * h, (interior.sum(), 3))
    mesh = TetrahedralMesh(nodes, lattice.elements, lattice.materials)
    bc = DirichletBC(boundary, _exact(mesh.nodes[boundary]))
    lam, mu = material.lame_lambda, material.lame_mu
    force = np.array([-2.0 * ALPHA * (lam + 2.0 * mu), 0.0, 0.0])
    model = BiomechanicalModel(mesh, MaterialMap((), default=material))
    u_h = model.simulate(bc, body_force=force).displacement

    coords = mesh.nodes[mesh.elements]  # (m, 4, 3)
    gradients, volumes = shape_function_gradients(coords)
    assert (volumes > 0).all()  # the lattice's orientation survives the jitter
    nodal = u_h[mesh.elements]  # (m, 4, 3)
    # L2: per component e = sum_ij l_i l_j Q_ij, with the linear part written
    # as the symmetric quadratic (U_i + U_j) / 2 (the l_i sum to one).
    d = coords[..., 0] - X0
    q = 0.5 * (nodal[:, :, None, :] + nodal[:, None, :, :])
    q[..., 0] -= ALPHA * d[:, :, None] * d[:, None, :]
    l2 = np.einsum("meij,ijkl,mekl->m", q.transpose(0, 3, 1, 2), _moments(),
                   q.transpose(0, 3, 1, 2))
    # Energy: the FE strain is constant per element, the exact one linear.
    strain_h = np.einsum("mij,mj->mi", strain_displacement_matrices(gradients),
                         nodal.reshape(-1, 12))
    x_at = np.einsum("gi,mi->mg", GAUSS4, coords[..., 0])  # (m, 4) quadrature x
    err = np.repeat(strain_h[:, None, :], 4, axis=1)
    err[..., 0] -= 2.0 * ALPHA * (x_at - X0)
    energy = np.einsum("mgi,ij,mgj->m", err, material.elasticity_matrix(), err) / 4.0
    return h, float(np.sqrt(l2 @ volumes)), float(np.sqrt(energy @ volumes))


def _orders(nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Observed L2 and energy orders between successive levels."""
    material = LinearElasticMaterial("manufactured", 3.0e3, nu)
    h, l2, energy = np.array([_errors(material, n) for n in CELLS]).T
    rate = lambda e: np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])
    return rate(l2), rate(energy)


class TestManufacturedConvergence:
    def test_brain_at_nu_045_converges_at_the_linear_element_orders(self):
        l2, energy = _orders(0.45)
        assert l2.min() >= 1.8, l2
        assert energy.min() >= 0.9, energy

    def test_nearly_incompressible_brain_at_nu_049(self):
        l2, energy = _orders(0.49)
        assert l2.min() >= 1.8, l2
        assert energy.min() >= 0.9, energy
