"""Global assembly of the sparse stiffness system.

Element stiffness matrices ``K_e = |V_e| B_e^T D_e B_e`` are computed in
batches (:mod:`repro.fem.element`) and scatter-added into a canonical
CSR pattern with ``np.add.at``. DOF ordering is node-major (node ``n``
owns DOFs ``3n, 3n+1, 3n+2``), which keeps each rank's rows contiguous
under the node partitioners in :mod:`repro.mesh.partition`.

The *symbolic* phase (:func:`node_pair_pattern`) derives the CSR
sparsity pattern from topology alone and keeps, per element, only the
column offset of each of its 16 node pairs. The *numeric* phase
(:func:`fill_csr_values`, shared with
:class:`repro.fem.context.AssemblyContext`) walks the elements in blocks
of :data:`ASSEMBLY_BLOCK_ELEMENTS`: slots by arithmetic
(:func:`element_entry_slots`), element matrices, one scatter-add into
the running value array. Nothing of ``72 m`` or ``144 m`` entries — the
strain-displacement matrices, the element matrices, the triplet->slot
map — exists at any point; :func:`build_csr_pattern` still derives the
whole map for callers that want it.

:func:`assembly_work_per_node` exposes the per-node work counts that the
machine model uses to reproduce the paper's assembly load imbalance.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import sparse

from repro.fem.element import (
    element_stiffness_from_B,
    shape_function_gradients,
    strain_displacement_matrices,
)
from repro.fem.material import MaterialMap
from repro.mesh.tetra import TetrahedralMesh
from repro.util import ShapeError


#: Elements per block of the numeric fill. Measured (DESIGN.md "What a
#: patient model holds"): below ~1 k the per-block Python and validation
#: overhead shows, above ~8 k the block's temporaries (B, K_e and the slot
#: array, ~3.5 kB an element) fall out of cache and the fill slows again
#: while the allocation peak grows; the plateau between is flat.
ASSEMBLY_BLOCK_ELEMENTS = 2048

_AXES = np.arange(3)


def stiffness_of_block(
    mesh: TetrahedralMesh, materials: MaterialMap, block: slice
) -> np.ndarray:
    """``K_e`` of the elements in ``block``: gradients -> B -> D -> ``V B^T D B``."""
    gradients, volumes = shape_function_gradients(mesh.nodes[mesh.elements[block]])
    B = strain_displacement_matrices(gradients)
    D = materials.elasticity_for_elements(mesh.materials[block])
    return element_stiffness_from_B(B, volumes, D)


def element_stiffness_matrices(
    mesh: TetrahedralMesh, materials: MaterialMap
) -> np.ndarray:
    """Batched 12x12 element stiffness matrices, shape ``(m, 12, 12)``."""
    return stiffness_of_block(mesh, materials, slice(None))


def element_dof_indices(mesh: TetrahedralMesh) -> np.ndarray:
    """Global DOF indices per element, shape ``(m, 12)``, node-major.

    Cached on the mesh (topology-only): repeated assemblies of the same
    mesh — the multi-scan clinical scenario — reuse one array.
    """
    return mesh.element_dof_indices()


def node_pair_pattern(
    elements: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical CSR pattern of the assembled matrix, from node pairs.

    DOFs are node-major and every element contributes full 3x3 node
    blocks, so only the ``16 m`` node pairs ``(I, J)`` are sorted; the
    DOF-level structure follows by arithmetic. Block row ``I`` with
    ``c_I`` distinct neighbours owns DOF rows ``3I .. 3I+2`` of ``3 c_I``
    entries each, and entry ``(a, b)`` of its ``q``-th block sits at
    ``indptr[3I + a] + 3q + b`` (:func:`element_entry_slots`).

    Returns ``(indices, indptr, pair_offset)``: the int32 CSR structure
    and, per element, the ``(m, 4, 4)`` column offset ``3q`` of each of
    its node pairs inside the pair's rows — the only element-sized
    symbolic data anything keeps (``16 m`` int32).
    """
    el = np.asarray(elements, dtype=np.int64)
    keys = (el[:, :, None] * n_nodes + el[:, None, :]).ravel()
    blocks, block_of = np.unique(keys, return_inverse=True)
    block_row, block_col = np.divmod(blocks, n_nodes)
    per_row = np.bincount(block_row, minlength=n_nodes)
    first_block = np.concatenate([[0], np.cumsum(per_row)])
    row_length = np.repeat(3 * per_row, 3)
    indptr = np.concatenate([[0], np.cumsum(row_length)])
    # Offset of every block's first column inside each of its rows: 3q.
    offset = 3 * (np.arange(len(blocks)) - first_block[block_row])
    # The three DOF rows of block row I hold the same 3 c_I columns, its
    # blocks' in order: one gather of the run that starts at 3 first_block[I].
    columns = (3 * block_col[:, None] + _AXES).astype(np.int32).ravel()
    run_start = np.repeat(3 * first_block[:-1], 3)
    indices = columns[np.arange(indptr[-1]) - np.repeat(indptr[:-1] - run_start, row_length)]
    pair_offset = offset.astype(np.int32)[block_of].reshape(len(el), 4, 4)
    return indices, indptr.astype(np.int32), pair_offset


def element_entry_slots(
    elements: np.ndarray, indptr: np.ndarray, pair_offset: np.ndarray
) -> np.ndarray:
    """CSR slot of each of the 144 entries of every given element.

    Entry ``(i, a; j, b)`` of an element sits at the start of DOF row
    ``3 el[i] + a`` plus the column offset of block ``(el[i], el[j])``
    plus ``b``. ``elements`` and ``pair_offset`` are matching slices of
    the mesh connectivity and of :func:`node_pair_pattern`'s third
    result; returns int64 ``(k, 144)``, an element's slots in the
    row-major order of its 12x12 matrix.
    """
    el = np.asarray(elements, dtype=np.int64)
    # Widened while still 12 k / 48 k, and summed over a trailing axis of
    # 12 rather than 3: the one 144 k array is written once, as int64.
    row_start = indptr[3 * el[:, :, None] + _AXES].astype(np.int64)
    columns = (pair_offset[..., None] + _AXES).reshape(len(el), 4, 1, 12)
    return (row_start[..., None] + columns).reshape(len(el), 144)


def build_csr_pattern(
    elements: np.ndarray, n_nodes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symbolic COO -> CSR structure for one-shot element-matrix assembly.

    Given the ``(m, 4)`` node ids per element, derives the canonical CSR
    pattern of the assembled ``(3 n_nodes, 3 n_nodes)`` matrix
    (:func:`node_pair_pattern`) and the scatter map sending each of the
    ``144 m`` element-matrix entries to its nonzero slot (duplicates
    share a slot; :func:`element_entry_slots` over every element).

    The assembly itself never builds that map — it fills in blocks
    (:func:`fill_csr_values`); this is the whole-mesh form for callers
    that want to hand ``coo_accumulate`` all triplets at once.

    Returns ``(scatter, indices, indptr)``; the nonzero count is
    ``len(indices)``.
    """
    indices, indptr, pair_offset = node_pair_pattern(elements, n_nodes)
    scatter = element_entry_slots(elements, indptr, pair_offset).reshape(-1)
    return scatter, indices, indptr


def fill_csr_values(
    elements: np.ndarray, indptr: np.ndarray, pair_offset: np.ndarray, matrices_of
) -> np.ndarray:
    """Numeric phase: the CSR value array, accumulated block by block.

    ``matrices_of(block)`` returns the ``(k, 12, 12)`` element matrices
    of the elements in the slice ``block``. Blocks of
    :data:`ASSEMBLY_BLOCK_ELEMENTS` are scattered into the running value
    array in element order, so every slot receives its contributions in
    the order a one-shot weighted ``bincount`` over all ``144 m`` triplets
    (``NumpyBackend.coo_accumulate``) adds them — the result is
    bit-identical to it — while nothing larger
    than a block's temporaries is ever allocated.
    """
    data = np.zeros(indptr[-1])
    for start in range(0, len(elements), ASSEMBLY_BLOCK_ELEMENTS):
        block = slice(start, start + ASSEMBLY_BLOCK_ELEMENTS)
        slots = element_entry_slots(elements[block], indptr, pair_offset[block])
        # Unbuffered and in input order: duplicate slots within a block all
        # land, each slot's addends in the order the one-shot bincount adds them.
        np.add.at(data, slots.reshape(-1), matrices_of(block).reshape(-1))
    return data


def assemble_stiffness(
    mesh: TetrahedralMesh,
    materials: MaterialMap,
    element_matrices: np.ndarray | None = None,
) -> sparse.csr_matrix:
    """Assemble the global ``(3n, 3n)`` stiffness matrix in CSR form."""
    if element_matrices is None:
        matrices_of = functools.partial(stiffness_of_block, mesh, materials)
    else:
        Ke = np.asarray(element_matrices, dtype=float)
        if Ke.shape != (mesh.n_elements, 12, 12):
            raise ShapeError(
                f"element matrices must be ({mesh.n_elements}, 12, 12), got {Ke.shape}"
            )
        matrices_of = Ke.__getitem__
    n = mesh.n_dof
    indices, indptr, pair_offset = node_pair_pattern(mesh.elements, mesh.n_nodes)
    data = fill_csr_values(mesh.elements, indptr, pair_offset, matrices_of)
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
