"""Labeled-volume tetrahedral mesh generation.

A coarse cell grid is laid over the volume; every cubic cell is split
into six tetrahedra by the Freudenthal (Kuhn) subdivision, which is
translation-invariant and therefore **conforming across cells** — the
fully connected, consistent multi-material mesh the paper's generator
produces. Each tetrahedron takes the tissue label of the segmentation at
its centroid, and cells outside the meshed tissue set are dropped,
"reducing the number of equations to solve by using mesh elements that
cover several image pixels".

The generator touches only the tetrahedra it keeps: the candidates of
the bounding box (``cells × 6``, of which a head keeps 12–18 %) exist as
one label per candidate and the ``element_lookup`` table; connectivity,
nodes and the face-connectivity filter are index arithmetic on the kept
ones (DESIGN.md, "Mesh generation touches only what it keeps").

Because the mesh comes from a regular grid, point location is analytic:
a world point maps to its cell in O(1) and to one of the six Kuhn
tetrahedra by sorting its local coordinates, giving exact barycentric
interpolation of nodal fields back onto the voxel grid (used when the
recovered FEM deformation is resampled for visualization).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.imaging.volume import ImageVolume
from repro.mesh.tetra import TetrahedralMesh
from repro.util import MeshError, ValidationError

#: The six axis permutations defining the Freudenthal subdivision:
#: tetrahedron ``(a, b, c)`` walks from the cell's low corner to its high
#: corner along axis ``a``, then ``b``, then ``c``.
PERMUTATIONS: tuple[tuple[int, int, int], ...] = tuple(itertools.permutations((0, 1, 2)))

_PERM_AXES = np.array(PERMUTATIONS, dtype=np.intp)

#: Map encoded permutation (p0*9 + p1*3 + p2) -> index into PERMUTATIONS.
_PERM_INDEX = np.full(27, -1, dtype=np.intp)
for _i, _p in enumerate(PERMUTATIONS):
    _PERM_INDEX[_p[0] * 9 + _p[1] * 3 + _p[2]] = _i


def _tet_corner_offsets() -> np.ndarray:
    """Lattice corner offsets of the 6 Kuhn tetrahedra, shape (6, 4, 3)."""
    out = np.zeros((6, 4, 3), dtype=np.intp)
    for t, perm in enumerate(PERMUTATIONS):
        corner = np.zeros(3, dtype=np.intp)
        out[t, 0] = corner
        for v, axis in enumerate(perm, start=1):
            corner = corner.copy()
            corner[axis] = 1
            out[t, v] = corner
    return out


def _face_neighbour_tets() -> np.ndarray:
    """Tetrahedron across each face of a Kuhn tetrahedron, shape (6, 4).

    For permutation ``(a, b, c)`` the face opposite local vertex 0 is
    shared with ``(b, c, a)`` of the next cell along ``a``, the faces
    opposite 1 and 2 with ``(b, a, c)`` and ``(a, c, b)`` of the same
    cell, and the face opposite 3 with ``(c, a, b)`` of the previous
    cell along ``c``.
    """
    index = {perm: t for t, perm in enumerate(PERMUTATIONS)}
    return np.array(
        [
            [index[b, c, a], index[b, a, c], index[a, c, b], index[c, a, b]]
            for a, b, c in PERMUTATIONS
        ],
        dtype=np.intp,
    )


_TET_OFFSETS = _tet_corner_offsets()
_FACE_NEIGHBOUR_TET = _face_neighbour_tets()

#: Centroid of each Kuhn tetrahedron in cell units, shape (6, 3).
_CENTROID_OFFSETS = _TET_OFFSETS.mean(axis=1)

#: The signed volume of a Kuhn tetrahedron has the sign of its
#: permutation, so the odd ones store local nodes 2 and 3 swapped
#: (``GridTetraMesher.flipped``).
_ODD_PERMUTATION = np.array(
    [np.linalg.det(np.eye(3)[list(perm)]) < 0 for perm in PERMUTATIONS]
)


@dataclass
class GridTetraMesher:
    """A generated mesh plus the grid structure enabling O(1) point location.

    Attributes
    ----------
    mesh:
        The compacted multi-material tetrahedral mesh.
    grid_origin:
        World coordinate of lattice point (0, 0, 0).
    cell_size:
        Edge lengths of a grid cell (mm), per axis.
    cells:
        Number of cells per axis.
    element_lookup:
        ``(cx, cy, cz, 6)`` array mapping (cell, tet) -> element index in
        the compacted mesh, or -1 where the cell was dropped.
    """

    mesh: TetrahedralMesh
    grid_origin: np.ndarray
    cell_size: np.ndarray
    cells: tuple[int, int, int]
    element_lookup: np.ndarray
    #: Elements whose local nodes 2 and 3 were swapped to fix orientation
    #: (Kuhn tets alternate chirality); locate() swaps the corresponding
    #: barycentric coordinates back.
    flipped: np.ndarray = None  # type: ignore[assignment]
    #: :meth:`displacement_on_grid`'s located voxels for the last reference
    #: grid, ``(grid key, inside, node rows, barycentrics)``; set it to
    #: ``None`` after editing the mesh in place.
    located_grid: tuple | None = field(default=None, repr=False, compare=False)

    def locate(self, points_world: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Find containing elements and barycentric coordinates.

        Points outside any kept element get element index -1 and zero
        barycentrics.

        Returns
        -------
        element:
            ``(n,)`` element indices (or -1).
        barycentric:
            ``(n, 4)`` coordinates w.r.t. the element's four nodes.
        """
        pts = np.asarray(points_world, dtype=float).reshape(-1, 3)
        local = (pts - self.grid_origin) / self.cell_size
        cell = np.floor(local).astype(np.intp)
        upper = np.asarray(self.cells) - 1
        inside = np.all((local >= 0) & (cell <= upper), axis=1)
        cell = np.clip(cell, 0, upper)
        frac = np.clip(local - cell, 0.0, 1.0)

        order = np.argsort(-frac, axis=1, kind="stable")  # descending coords
        code = order[:, 0] * 9 + order[:, 1] * 3 + order[:, 2]
        tet = _PERM_INDEX[code]

        element = np.where(
            inside,
            self.element_lookup[cell[:, 0], cell[:, 1], cell[:, 2], tet],
            -1,
        )
        s = np.take_along_axis(frac, order, axis=1)  # sorted descending
        bary = np.stack(
            [1.0 - s[:, 0], s[:, 0] - s[:, 1], s[:, 1] - s[:, 2], s[:, 2]], axis=1
        )
        # Kuhn vertex order -> stored element node order (2/3 swapped for
        # orientation-fixed elements).
        if self.flipped is not None:
            swap = (element >= 0) & self.flipped[np.where(element >= 0, element, 0)]
            if np.any(swap):
                bary[swap, 2], bary[swap, 3] = (
                    bary[swap, 3].copy(),
                    bary[swap, 2].copy(),
                )
        bary[element < 0] = 0.0
        return element, bary

    def interpolate(
        self,
        nodal_values: np.ndarray,
        points_world: np.ndarray,
        fill_value: float = 0.0,
    ) -> np.ndarray:
        """Barycentric interpolation of a nodal field at world points.

        ``nodal_values`` is ``(n_nodes,)`` or ``(n_nodes, c)``; the result
        is ``(n_points,)`` or ``(n_points, c)``, with ``fill_value`` for
        points outside the mesh.
        """
        vals = np.asarray(nodal_values, dtype=float)
        if vals.shape[0] != self.mesh.n_nodes:
            raise ValidationError(
                f"nodal_values first dimension {vals.shape[0]} != n_nodes {self.mesh.n_nodes}"
            )
        element, bary = self.locate(points_world)
        found = element >= 0
        conn = self.mesh.elements[np.where(found, element, 0)]  # (n, 4)
        corner_vals = vals[conn]  # (n, 4[, c])
        if vals.ndim == 1:
            out = np.einsum("nk,nk->n", bary, corner_vals)
        else:
            out = np.einsum("nk,nkc->nc", bary, corner_vals)
        out[~found] = fill_value
        return out

    def displacement_on_grid(
        self, nodal_displacement: np.ndarray, reference: ImageVolume
    ) -> np.ndarray:
        """Dense displacement field on a voxel grid from nodal FEM output.

        Returns ``(*reference.shape, 3)`` in mm; zero outside the mesh.
        """
        vals = np.asarray(nodal_displacement, dtype=float)
        if vals.shape != (self.mesh.n_nodes, 3):
            raise ValidationError(
                f"nodal_displacement must be ({self.mesh.n_nodes}, 3), got {vals.shape}"
            )
        inside, conn, bary = self._locate_grid(reference)
        disp = np.zeros((reference.data.size, 3))
        disp[inside] = np.einsum("nk,nkc->nc", bary, vals[conn])
        return disp.reshape(*reference.shape, 3)

    def _locate_grid(
        self, reference: ImageVolume
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where ``reference``'s voxel centres sit in the mesh, located once.

        Returns the flat indices of the voxels inside the mesh, their
        elements' node rows ``(n, 4)`` and barycentrics ``(n, 4)``. Mesh
        and grid are fixed for a patient, so the last grid's answer is
        kept in ``located_grid`` (one entry, keyed on the grid's exact
        shape, spacing and origin).
        """
        key = (tuple(reference.shape), tuple(reference.spacing), tuple(reference.origin))
        if self.located_grid is None or self.located_grid[0] != key:
            element, bary = self.locate(reference.voxel_centers().reshape(-1, 3))
            inside = np.flatnonzero(element >= 0)
            self.located_grid = (
                key, inside, self.mesh.elements[element[inside]], bary[inside],
            )
        return self.located_grid[1:]


class _KeptTetrahedra(NamedTuple):
    """The tetrahedra a mesh will have, before any of it is built.

    A *candidate* is a flat index into the ``(cx, cy, cz, 6)`` grid of
    Kuhn tetrahedra; ``kept`` lists the chosen ones in ascending order
    (element order), ``lookup`` maps every candidate to its element
    index (-1: dropped).
    """

    cells: tuple[int, int, int]
    cell_size: np.ndarray
    grid_origin: np.ndarray
    kept: np.ndarray
    materials: np.ndarray
    lookup: np.ndarray


def _face_neighbours(candidates: np.ndarray, cells: tuple[int, int, int]) -> np.ndarray:
    """Candidate across each face of the given candidates, shape (n, 4).

    Column ``f`` is the candidate sharing the face opposite local vertex
    ``f``, or -1 where that face lies on the boundary of the grid. The
    subdivision is the same in every cell, so this is index arithmetic —
    no face is built or sorted.
    """
    cell, tet = np.divmod(candidates, 6)
    ijk = np.stack(np.unravel_index(cell, cells))  # (3, n)
    strides = np.array([cells[1] * cells[2] * 6, cells[2] * 6, 6], dtype=np.intp)
    upper = np.asarray(cells, dtype=np.intp)
    rows = np.arange(len(candidates))
    out = candidates[:, None] + (_FACE_NEIGHBOUR_TET[tet] - tet[:, None])
    # Faces 1 and 2 stay in the cell; 0 steps forward along the
    # permutation's first axis, 3 backward along its last.
    for face, perm_slot, step in ((0, 0, 1), (3, 2, -1)):
        axis = _PERM_AXES[tet, perm_slot]
        along = ijk[axis, rows] + step
        inside = (along >= 0) & (along < upper[axis])
        out[:, face] = np.where(inside, out[:, face] + step * strides[axis], -1)
    return out


def _largest_component(
    kept: np.ndarray, lookup: np.ndarray, cells: tuple[int, int, int]
) -> np.ndarray:
    """Boolean mask over ``kept`` of its largest face-connected component.

    Tetrahedra that touch the main body only through a vertex or an
    edge form zero-energy mechanisms (they can hinge freely), which
    makes the stiffness matrix singular under partial-support boundary
    conditions. Keeping one face-connected component removes them.

    scipy numbers components by their lowest member, so ``argmax``
    breaks ties exactly as the sort-based filter of
    :mod:`repro.mesh.editing` does on the same elements.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    m = len(kept)
    if m <= 1:
        return np.ones(m, dtype=bool)
    neighbours = _face_neighbours(kept, cells)
    neighbours = np.where(neighbours >= 0, lookup[neighbours], -1)
    linked = neighbours >= 0
    indptr = np.concatenate([[0], np.cumsum(linked.sum(axis=1))])
    indices = neighbours[linked]
    graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(m, m))
    n_comp, component = connected_components(graph, directed=False)
    if n_comp == 1:
        return np.ones(m, dtype=bool)
    return component == np.argmax(np.bincount(component))


def _centroid_materials(
    labels: ImageVolume,
    cells: tuple[int, int, int],
    cell_size: np.ndarray,
    grid_origin: np.ndarray,
) -> np.ndarray:
    """Label at the centroid of every candidate, shape ``(cx, cy, cz, 6)``.

    A centroid's coordinate along an axis depends only on the cell index
    along that axis and on the tetrahedron, so its nearest voxel comes
    from three ``(cells_a, 6)`` index tables and the labels from one
    broadcast gather (-1 where a centroid rounds outside the volume).
    """
    data = labels.data
    index, inside = [], []
    for a in range(3):
        centroid = (
            grid_origin[a]
            + (np.arange(cells[a])[:, None] + _CENTROID_OFFSETS[:, a]) * cell_size[a]
        )
        voxel = np.rint((centroid - labels._origin_arr[a]) / labels._spacing_arr[a])
        voxel = voxel.astype(np.intp)
        shape = [1, 1, 1, 6]
        shape[a] = cells[a]
        inside.append(((voxel >= 0) & (voxel < data.shape[a])).reshape(shape))
        index.append(np.clip(voxel, 0, data.shape[a] - 1).reshape(shape))
    mats = data[tuple(index)]
    if mats.dtype.kind not in "iu":
        # A label image that is not integer-typed is read through float64.
        mats = mats.astype(np.float64).astype(np.int64)
    if not all(ok.all() for ok in inside):
        mats = np.where(inside[0] & inside[1] & inside[2], mats.astype(np.int64), -1)
    return mats


def _select_tetrahedra(
    labels: ImageVolume,
    cell_mm: float | tuple[float, float, float],
    mesh_materials: tuple[int, ...],
    keep_largest_component: bool,
) -> _KeptTetrahedra:
    """Lay the cell grid over the volume and choose its tetrahedra."""
    if not mesh_materials:
        raise ValidationError("mesh_materials must not be empty")
    extent = labels.physical_extent
    cell_req = np.broadcast_to(np.asarray(cell_mm, dtype=float), (3,))
    if np.any(cell_req <= 0):
        raise ValidationError(f"cell_mm must be positive, got {cell_mm}")
    cell_counts = np.maximum(1, np.round(extent / cell_req).astype(int))
    cell_size = extent / cell_counts
    grid_origin = np.asarray(labels.origin) - np.asarray(labels.spacing) / 2.0
    cells = tuple(int(c) for c in cell_counts)

    mats = _centroid_materials(labels, cells, cell_size, grid_origin).reshape(-1)
    kept = np.flatnonzero(np.isin(mats, np.asarray(mesh_materials)))
    if len(kept) == 0:
        raise MeshError(
            f"no tetrahedra with materials {mesh_materials}: is the cell size too coarse?"
        )
    lookup = np.full(len(mats), -1, dtype=np.intp)
    lookup[kept] = np.arange(len(kept))
    if keep_largest_component:
        component = _largest_component(kept, lookup, cells)
        if not component.all():
            lookup[kept] = -1
            kept = kept[component]
            lookup[kept] = np.arange(len(kept))
    return _KeptTetrahedra(
        cells, cell_size, grid_origin, kept, mats[kept].astype(np.int64), lookup
    )


def _lattice_elements(
    kept: np.ndarray, cells: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Connectivity of the kept tetrahedra on the full lattice.

    Returns their ``(k, 4)`` lattice node ids, positively oriented, and
    the boolean mask of the lattice nodes they use.
    """
    node_dims = tuple(c + 1 for c in cells)
    corner = np.ravel_multi_index(np.moveaxis(_TET_OFFSETS, -1, 0), node_dims)  # (6, 4)
    corner[_ODD_PERMUTATION] = corner[_ODD_PERMUTATION][:, [0, 1, 3, 2]]
    cell, tet = np.divmod(kept, 6)
    base_node = np.ravel_multi_index(np.unravel_index(cell, cells), node_dims)
    elements = base_node[:, None] + corner[tet]
    used = np.zeros(int(np.prod(node_dims)), dtype=bool)
    used[elements.reshape(-1)] = True
    return elements, used


def mesh_labeled_volume(
    labels: ImageVolume,
    cell_mm: float | tuple[float, float, float],
    mesh_materials: tuple[int, ...],
    keep_largest_component: bool = True,
) -> GridTetraMesher:
    """Mesh the regions of a label volume carrying the given materials.

    Parameters
    ----------
    labels:
        Segmentation volume (integer tissue classes).
    cell_mm:
        Target cell edge length(s); the grid is stretched slightly so an
        integer number of cells covers the volume exactly.
    mesh_materials:
        Tissue labels to keep. Tetrahedra whose centroid lands outside
        these classes are dropped.
    keep_largest_component:
        Drop tetrahedra that are not face-connected to the largest
        component (vertex/edge-attached clusters are mechanisms that
        would make partial-support FEM problems singular).
    """
    cells, cell_size, grid_origin, kept, materials, lookup = _select_tetrahedra(
        labels, cell_mm, mesh_materials, keep_largest_component
    )
    elements, used = _lattice_elements(kept, cells)

    # Keep the lattice nodes in use, in lattice order.
    node_ids = np.flatnonzero(used)
    new_index = np.full(len(used), -1, dtype=np.intp)
    new_index[node_ids] = np.arange(len(node_ids))
    lattice = np.unravel_index(node_ids, tuple(c + 1 for c in cells))
    nodes = np.stack(
        [grid_origin[a] + lattice[a] * cell_size[a] for a in range(3)], axis=1
    )
    mesh = TetrahedralMesh(nodes, new_index[elements], materials)
    mesh.validate()

    return GridTetraMesher(
        mesh=mesh,
        grid_origin=grid_origin,
        cell_size=cell_size,
        cells=cells,
        element_lookup=lookup.reshape(*cells, 6),
        flipped=_ODD_PERMUTATION[kept % 6],
    )


def _count_nodes(
    labels: ImageVolume, cell_mm: float, mesh_materials: tuple[int, ...]
) -> int:
    """Nodes :func:`mesh_labeled_volume` would produce at this cell size."""
    selection = _select_tetrahedra(labels, cell_mm, mesh_materials, True)
    _, used = _lattice_elements(selection.kept, selection.cells)
    return int(np.count_nonzero(used))


def mesh_with_target_nodes(
    labels: ImageVolume,
    target_nodes: int,
    mesh_materials: tuple[int, ...],
    tolerance: float = 0.03,
    max_iter: int = 12,
) -> GridTetraMesher:
    """Choose a cell size so the kept mesh has ≈ ``target_nodes`` nodes.

    The paper's clinical system has 77,511 equations (25,837 nodes);
    :mod:`repro.experiments` uses this helper to regenerate systems of
    matching size. A bisection over a uniform cell scale converges to
    within ``tolerance`` (relative) or settles for the best size found;
    the search only counts nodes, and one mesh is built, at the cell
    size it ends on.
    """
    if target_nodes < 8:
        raise ValidationError(f"target_nodes too small: {target_nodes}")
    extent = labels.physical_extent
    # Initial estimate: fill fraction from the voxel labels.
    fill = float(np.isin(labels.data, np.asarray(mesh_materials)).mean())
    fill = max(fill, 1e-3)
    h0 = float((np.prod(extent) * fill / target_nodes) ** (1.0 / 3.0))

    lo, hi = h0 / 4.0, h0 * 4.0
    best_h, best_err = None, np.inf
    for _ in range(max_iter):
        h = np.sqrt(lo * hi)
        n = _count_nodes(labels, h, mesh_materials)
        err = abs(n - target_nodes) / target_nodes
        if err < best_err:
            best_h, best_err = h, err
        if err <= tolerance:
            break
        if n > target_nodes:
            lo = h  # too many nodes -> coarser cells
        else:
            hi = h
    assert best_h is not None
    return mesh_labeled_volume(labels, best_h, mesh_materials)
