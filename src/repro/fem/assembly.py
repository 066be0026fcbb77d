"""Global assembly of the sparse stiffness system.

Element stiffness matrices ``K_e = |V_e| B_e^T D_e B_e`` are computed in
one backend batch (:mod:`repro.backend`); the global matrix is
accumulated from COO triplets into a canonical CSR pattern. DOF ordering
is node-major (node ``n`` owns DOFs ``3n, 3n+1, 3n+2``), which keeps
each rank's rows contiguous under the node partitioners in
:mod:`repro.mesh.partition`.

:func:`build_csr_pattern` is the *symbolic* phase shared with
:class:`repro.fem.context.AssemblyContext`: it derives the CSR sparsity
pattern and the triplet->nonzero scatter map from topology alone, so the
numeric value fill is a single backend ``coo_accumulate`` call.

:func:`assembly_work_per_node` exposes the per-node work counts that the
machine model uses to reproduce the paper's assembly load imbalance.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.backend import get_backend
from repro.fem.element import (
    element_stiffness_from_B,
    shape_function_gradients,
    strain_displacement_matrices,
)
from repro.fem.material import MaterialMap
from repro.mesh.tetra import TetrahedralMesh
from repro.util import ShapeError


def element_stiffness_matrices(
    mesh: TetrahedralMesh, materials: MaterialMap
) -> np.ndarray:
    """Batched 12x12 element stiffness matrices, shape ``(m, 12, 12)``."""
    gradients, volumes = shape_function_gradients(mesh.element_coordinates())
    B = strain_displacement_matrices(gradients)
    D = materials.elasticity_for_elements(mesh.materials)
    return element_stiffness_from_B(B, volumes, D)


def element_dof_indices(mesh: TetrahedralMesh) -> np.ndarray:
    """Global DOF indices per element, shape ``(m, 12)``, node-major.

    Cached on the mesh (topology-only): repeated assemblies of the same
    mesh — the multi-scan clinical scenario — reuse one array.
    """
    return mesh.element_dof_indices()


def build_csr_pattern(
    elements: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symbolic COO -> CSR structure for element-matrix assembly.

    Given the ``(m, 4)`` node ids per element, derives the canonical CSR
    pattern of the assembled ``(3 n_nodes, 3 n_nodes)`` matrix and the
    scatter map sending each of the ``144 m`` element-matrix entries to
    its nonzero slot (duplicates share a slot). Topology-only, so the
    result can be cached across numeric refreshes.

    DOFs are node-major and every element contributes full 3x3 node
    blocks, so only the ``16 m`` node pairs ``(I, J)`` are sorted; the
    DOF-level structure follows by arithmetic. Block row ``I`` with
    ``c_I`` distinct neighbours owns DOF rows ``3I .. 3I+2`` of ``3 c_I``
    entries each, and entry ``(a, b)`` of its ``q``-th block sits at
    ``indptr[3I + a] + 3q + b``.

    Returns ``(scatter, indices, indptr)``; the nonzero count is
    ``len(indices)``.
    """
    el = np.asarray(elements, dtype=np.int64)
    m = len(el)
    keys = (el[:, :, None] * n_nodes + el[:, None, :]).ravel()
    blocks, block_of = np.unique(keys, return_inverse=True)
    block_row, block_col = np.divmod(blocks, n_nodes)
    per_row = np.bincount(block_row, minlength=n_nodes)
    first_block = np.concatenate([[0], np.cumsum(per_row)])
    indptr = np.concatenate([[0], np.cumsum(np.repeat(3 * per_row, 3))])
    axes = np.arange(3)
    # Offset of every block's three columns inside each of its rows: 3q + b.
    q = np.arange(len(blocks)) - first_block[block_row]
    offset = 3 * q[:, None] + axes
    row_start = indptr[3 * block_row[:, None] + axes]
    indices = np.empty(9 * len(blocks), dtype=np.int32)
    indices[row_start[:, :, None] + offset[:, None, :]] = (
        3 * block_col[:, None] + axes
    )[:, None, :]
    # Element entry (i, a; j, b) -> start of DOF row 3 el[i] + a, plus the
    # column offset of block (el[i], el[j]). Written straight into scatter,
    # the only 144 m array: allocation volume is most of what this costs.
    scatter = np.empty((m, 4, 3, 12), dtype=np.int64)
    np.add(
        indptr[3 * el[:, :, None] + axes][..., None],
        offset[block_of].reshape(m, 4, 1, 12),
        out=scatter,
    )
    return scatter.reshape(-1), indices, indptr.astype(np.int32)


def assemble_stiffness(
    mesh: TetrahedralMesh,
    materials: MaterialMap,
    element_matrices: np.ndarray | None = None,
) -> sparse.csr_matrix:
    """Assemble the global ``(3n, 3n)`` stiffness matrix in CSR form."""
    Ke = (
        element_stiffness_matrices(mesh, materials)
        if element_matrices is None
        else np.asarray(element_matrices, dtype=float)
    )
    if Ke.shape != (mesh.n_elements, 12, 12):
        raise ShapeError(
            f"element matrices must be ({mesh.n_elements}, 12, 12), got {Ke.shape}"
        )
    n = mesh.n_dof
    scatter, indices, indptr = build_csr_pattern(mesh.elements, mesh.n_nodes)
    data = get_backend().coo_accumulate(scatter, Ke.reshape(-1), len(indices))
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def assemble_load_vector(
    mesh: TetrahedralMesh,
    body_force: np.ndarray | None = None,
) -> np.ndarray:
    """Consistent load vector for a constant body force per element.

    ``body_force`` is ``(3,)`` (uniform, e.g. gravity) or ``(m, 3)``
    per element, in N/mm^3; each element distributes ``f |V| / 4`` to its
    four nodes. Returns the ``(3n,)`` load vector (zero when no force is
    given — the paper's formulation drives the system purely through
    displacement boundary conditions).
    """
    f = np.zeros(mesh.n_dof)
    if body_force is None:
        return f
    bf = np.asarray(body_force, dtype=float)
    if bf.shape == (3,):
        bf = np.broadcast_to(bf, (mesh.n_elements, 3))
    if bf.shape != (mesh.n_elements, 3):
        raise ShapeError(f"body_force must be (3,) or (m, 3), got {bf.shape}")
    contrib = bf * (np.abs(mesh.element_volumes()) / 4.0)[:, None]  # (m, 3)
    for node in range(4):
        idx = 3 * mesh.elements[:, node]
        for axis in range(3):
            np.add.at(f, idx + axis, contrib[:, axis])
    return f


def assembly_work_per_node(mesh: TetrahedralMesh) -> np.ndarray:
    """Work units each node contributes during assembly.

    In a node-owner decomposition a rank computes the rows of its nodes,
    i.e. one 3x12 block per (element, owned node) incidence — so per-node
    work is the node-element connectivity count. "In our unstructured
    grid different mesh nodes can have different connectivity, and hence
    require a different amount of work."
    """
    return mesh.node_element_counts()
