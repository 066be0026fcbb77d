"""Linear tetrahedral element matrices.

For the four-node tetrahedron with linear interpolation the shape
function of node ``i`` is ``N_i = (a_i + b_i x + c_i y + d_i z) / 6V``
(Zienkiewicz & Taylor, 4th ed., pp. 91-92, as cited by the paper); its
gradient is constant over the element, so strain is element-wise
constant and the stiffness integral reduces to ``V * B^T D B``.

All routines operate on batches of elements at once, in plain numpy:
the gradients are closed-form cross products of each element's edge
vectors over its Jacobian determinant, the stiffness two batched BLAS
``matmul`` calls, strain and stress one ``einsum`` each. None of them is
a compute-backend kernel: together they are under 2 % of a paper-size
run (DESIGN.md, "Removed: the element, accumulation and gather kernels
of the backend seam").
"""

from __future__ import annotations

import numpy as np

from repro.util import ShapeError, ValidationError

_f64 = lambda a: np.asarray(a, dtype=float)


def shape_function_gradients(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Constant shape-function gradients for batches of tetrahedra.

    Parameters
    ----------
    coords:
        ``(m, 4, 3)`` node coordinates per element.

    Returns
    -------
    gradients:
        ``(m, 4, 3)`` array with ``gradients[e, i]`` = grad N_i.
    volumes:
        ``(m,)`` signed element volumes.

    Raises :class:`repro.util.ValidationError` on degenerate
    (zero-volume) elements.
    """
    coords = _f64(coords)
    if coords.ndim != 3 or coords.shape[1:] != (4, 3):
        raise ShapeError(f"coords must be (m, 4, 3), got {coords.shape}")
    # With edges e_k = x_k - x_0 the Jacobian determinant is the triple
    # product e1 . (e2 x e3) = 6V, and the gradients of N_1..N_3 are the
    # rows of the inverse Jacobian's transpose: the cross products of the
    # other two edges over det. The N_i sum to one, so grad N_0 = -sum.
    e1 = coords[:, 1] - coords[:, 0]
    e2 = coords[:, 2] - coords[:, 0]
    e3 = coords[:, 3] - coords[:, 0]
    c23 = np.cross(e2, e3)
    det = np.einsum("ij,ij->i", e1, c23)
    if np.any(np.abs(det) < 1e-30):
        raise ValidationError("degenerate tetrahedron (zero volume) in batch")
    gradients = np.empty_like(coords)
    gradients[:, 1] = c23
    gradients[:, 2] = np.cross(e3, e1)
    gradients[:, 3] = np.cross(e1, e2)
    gradients[:, 1:] /= det[:, None, None]
    gradients[:, 0] = -gradients[:, 1:].sum(axis=1)
    volumes = det / 6.0
    return gradients, volumes


def strain_displacement_matrices(gradients: np.ndarray) -> np.ndarray:
    """Voigt strain-displacement matrices B, shape ``(m, 6, 12)``.

    DOF ordering per element is node-major: ``(u1x, u1y, u1z, u2x, ...)``.
    Strain ordering is ``(e_xx, e_yy, e_zz, g_xy, g_yz, g_zx)`` with
    engineering shear strains.
    """
    g = _f64(gradients)
    if g.ndim != 3 or g.shape[1:] != (4, 3):
        raise ShapeError(f"gradients must be (m, 4, 3), got {g.shape}")
    m = g.shape[0]
    B = np.zeros((m, 6, 12))
    for node in range(4):
        bx, by, bz = g[:, node, 0], g[:, node, 1], g[:, node, 2]
        col = 3 * node
        B[:, 0, col + 0] = bx
        B[:, 1, col + 1] = by
        B[:, 2, col + 2] = bz
        B[:, 3, col + 0] = by
        B[:, 3, col + 1] = bx
        B[:, 4, col + 1] = bz
        B[:, 4, col + 2] = by
        B[:, 5, col + 0] = bz
        B[:, 5, col + 2] = bx
    return B


def element_stiffness_from_B(
    B: np.ndarray, volumes: np.ndarray, elasticity: np.ndarray
) -> np.ndarray:
    """Batched ``K_e = |V| B^T D B``, shape ``(m, 12, 12)``.

    Split out of the full element-stiffness routine so callers that cache
    the geometry factors (``B``, ``volumes``) can refresh the numeric
    values after a material change without re-deriving shape-function
    gradients — the numeric half of the symbolic/numeric assembly split.
    """
    B = _f64(B)
    if B.ndim != 3 or B.shape[1:] != (6, 12):
        raise ShapeError(f"B must be (m, 6, 12), got {B.shape}")
    volumes = np.abs(_f64(volumes))
    # Batched matmul runs each 6x6.6x12 / 12x6.6x12 product through
    # BLAS; the same contraction written as einsum falls to numpy's
    # generic loop and is ~10x slower (benchmarks/test_kernels.py).
    K = np.matmul(B.transpose(0, 2, 1), np.matmul(_f64(elasticity), B))
    K *= volumes[:, None, None]
    return K


def element_strains(gradients: np.ndarray, nodal_displacements: np.ndarray) -> np.ndarray:
    """Constant Voigt strain per element from nodal displacements.

    ``nodal_displacements`` is ``(m, 4, 3)`` (per element, per node).
    """
    B = strain_displacement_matrices(gradients)
    u = _f64(nodal_displacements).reshape(-1, 12)
    if u.shape[0] != B.shape[0]:
        raise ShapeError("element count mismatch between gradients and displacements")
    return np.einsum("mij,mj->mi", B, u)


def element_stress(strains: np.ndarray, elasticity: np.ndarray) -> np.ndarray:
    """Voigt stress per element: ``sigma = D epsilon``."""
    return np.einsum("mij,mj->mi", _f64(elasticity), _f64(strains))
