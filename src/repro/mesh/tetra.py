"""Tetrahedral mesh container.

Nodes live in world (mm) coordinates; elements are 4-tuples of node
indices with positive orientation (positive signed volume); every
element carries an integer material label (the tissue class of the
segmentation cell it came from), which is how "different biomechanical
properties and parameters can easily be assigned to the different cells
or objects composing the mesh".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.util import MeshError, ShapeError

#: The four faces of a tetrahedron, as local vertex index triples,
#: oriented so the face normal points out of the element.
TET_FACES = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]], dtype=np.intp)

#: Most nodes :meth:`TetrahedralMesh.boundary_faces` can key: a face code
#: ``(lo n + mid) n + hi`` reaches ``n**3 - 1``, which fits int64 up to
#: ``n = 2**21`` (6.3 M DOFs, far past any mesh the pipeline solves).
MAX_FACE_KEY_NODES = 1 << 21


@dataclass
class TetrahedralMesh:
    """An unstructured tetrahedral mesh with per-element material labels.

    Attributes
    ----------
    nodes:
        ``(n_nodes, 3)`` world coordinates (mm).
    elements:
        ``(n_elements, 4)`` node indices, positively oriented.
    materials:
        ``(n_elements,)`` integer tissue label per element.

    The three arrays are read-only: an in-place edit raises, so the mesh
    hashes them once (:meth:`digest`). An edit is a new mesh (e.g.
    :func:`repro.mesh.remove_elements_by_material`).
    """

    nodes: np.ndarray
    elements: np.ndarray
    materials: np.ndarray
    _volumes: np.ndarray | None = field(default=None, repr=False, compare=False)
    _element_dofs: np.ndarray | None = field(default=None, repr=False, compare=False)
    _node_element_counts: np.ndarray | None = field(default=None, repr=False, compare=False)
    _digest: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.float64)
        self.elements = np.asarray(self.elements, dtype=np.intp)
        self.materials = np.asarray(self.materials)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise ShapeError(f"nodes must be (n, 3), got {self.nodes.shape}")
        if self.elements.ndim != 2 or self.elements.shape[1] != 4:
            raise ShapeError(f"elements must be (m, 4), got {self.elements.shape}")
        if self.materials.shape != (len(self.elements),):
            raise ShapeError(
                f"materials must be (m,) = ({len(self.elements)},), got {self.materials.shape}"
            )
        if len(self.elements) and (
            self.elements.min() < 0 or self.elements.max() >= len(self.nodes)
        ):
            raise MeshError("element refers to a node index out of range")
        for array in (self.nodes, self.elements, self.materials):
            array.flags.writeable = False

    def digest(self) -> bytes:
        """16-byte BLAKE2b of ``nodes``, ``elements`` and ``materials``.

        Computed on the first call and kept: the arrays are read-only. An
        array assigned to the mesh later is frozen and hashed afresh.
        """
        arrays = (self.nodes, self.elements, self.materials)
        if self._digest is None or any(a is not b for a, b in zip(self._digest[0], arrays)):
            h = hashlib.blake2b(digest_size=16)
            for array in arrays:
                array.flags.writeable = False
                h.update(np.ascontiguousarray(array).tobytes())
            self._digest = (arrays, h.digest())
        return self._digest[1]

    # -- basic quantities ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @property
    def n_dof(self) -> int:
        """Number of displacement unknowns (3 per node) before BCs."""
        return 3 * self.n_nodes

    def element_coordinates(self) -> np.ndarray:
        """Node coordinates per element, shape ``(m, 4, 3)``."""
        return self.nodes[self.elements]

    def element_volumes(self, refresh: bool = False) -> np.ndarray:
        """Signed volumes of every element (cached)."""
        if self._volumes is None or refresh:
            x = self.element_coordinates()
            a = x[:, 1] - x[:, 0]
            b = x[:, 2] - x[:, 0]
            c = x[:, 3] - x[:, 0]
            self._volumes = np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0
        return self._volumes

    def total_volume(self) -> float:
        return float(np.abs(self.element_volumes()).sum())

    def element_centroids(self) -> np.ndarray:
        return self.element_coordinates().mean(axis=1)

    def element_dof_indices(self) -> np.ndarray:
        """Global DOF indices per element, shape ``(m, 12)``, node-major.

        Topology-only and therefore cached: the hot assembly path asks
        for this array on every scan of a surgical session.
        """
        if self._element_dofs is None:
            conn = self.elements
            self._element_dofs = (
                3 * conn[:, :, None] + np.arange(3)[None, None, :]
            ).reshape(-1, 12)
        return self._element_dofs

    # -- connectivity --------------------------------------------------------

    def node_element_counts(self) -> np.ndarray:
        """Number of elements touching each node — the paper's source of
        assembly load imbalance ("different mesh nodes can have different
        connectivity, and hence require a different amount of work").
        Topology-only, so the counts are computed once and cached."""
        if self._node_element_counts is None:
            counts = np.zeros(self.n_nodes, dtype=np.int64)
            np.add.at(counts, self.elements.ravel(), 1)
            self._node_element_counts = counts
        return self._node_element_counts

    def edge_array(self) -> np.ndarray:
        """Unique undirected edges as an ``(e, 2)`` array."""
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        stacked = np.concatenate(
            [
                np.stack(
                    [
                        np.minimum(self.elements[:, i], self.elements[:, j]),
                        np.maximum(self.elements[:, i], self.elements[:, j]),
                    ],
                    axis=1,
                )
                for i, j in pairs
            ]
        )
        return np.unique(stacked, axis=0)

    def boundary_faces(self, materials: tuple[int, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Faces belonging to exactly one element of the selected material set.

        Parameters
        ----------
        materials:
            Restrict to elements with these labels (default: all).

        Returns
        -------
        faces:
            ``(f, 3)`` node-index triples oriented outward.
        owners:
            ``(f,)`` owning element index per face.

        Raises :class:`repro.util.MeshError` past
        :data:`MAX_FACE_KEY_NODES` nodes.
        """
        n = self.n_nodes
        if n > MAX_FACE_KEY_NODES:
            raise MeshError(
                f"boundary_faces keys faces by one int64 code: {n} nodes exceed "
                f"the {MAX_FACE_KEY_NODES} it can encode"
            )
        if materials is None:
            keep = np.arange(self.n_elements)
        else:
            keep = np.flatnonzero(np.isin(self.materials, materials))
        elems = self.elements[keep]
        faces = elems[:, TET_FACES]  # (m, 4, 3)
        flat = faces.reshape(-1, 3)
        owners = np.repeat(keep, 4)
        # One code (lo n + mid) n + hi per face, of its nodes in ascending
        # order, orders faces as a lexicographic sort of the sorted triples
        # would; the stable sort keeps the order of equal codes, as lexsort
        # does.
        a, b, c = flat.T.astype(np.int64)
        lo = np.minimum(np.minimum(a, b), c)
        hi = np.maximum(np.maximum(a, b), c)
        code = (lo * n + (a + b + c - lo - hi)) * n + hi
        order = np.argsort(code, kind="stable")
        code_sorted = code[order]
        # A face is boundary iff its code appears exactly once.
        same_next = np.zeros(len(code_sorted), dtype=bool)
        same_next[:-1] = code_sorted[:-1] == code_sorted[1:]
        same_prev = np.zeros(len(code_sorted), dtype=bool)
        same_prev[1:] = same_next[:-1]
        unique = ~(same_next | same_prev)
        picked = order[unique]
        return flat[picked], owners[picked]

    # -- editing --------------------------------------------------------------

    def compact(self) -> tuple["TetrahedralMesh", np.ndarray]:
        """Drop unused nodes; returns (new mesh, old->new node index map)."""
        used = np.zeros(self.n_nodes, dtype=bool)
        used[self.elements.ravel()] = True
        new_index = np.full(self.n_nodes, -1, dtype=np.intp)
        new_index[used] = np.arange(used.sum())
        mesh = TetrahedralMesh(
            self.nodes[used], new_index[self.elements], self.materials.copy()
        )
        return mesh, new_index

    def with_materials(self, materials: np.ndarray) -> "TetrahedralMesh":
        return TetrahedralMesh(self.nodes, self.elements, materials)

    def select_materials(self, materials: tuple[int, ...]) -> "TetrahedralMesh":
        """Submesh of the elements carrying the given labels (compacted)."""
        keep = np.isin(self.materials, materials)
        sub = TetrahedralMesh(self.nodes, self.elements[keep], self.materials[keep])
        mesh, _ = sub.compact()
        return mesh

    def validate(self) -> None:
        """Raise :class:`MeshError` if any element is degenerate/inverted."""
        vols = self.element_volumes(refresh=True)
        if len(vols) == 0:
            raise MeshError("mesh has no elements")
        if np.any(vols <= 0):
            bad = int(np.count_nonzero(vols <= 0))
            raise MeshError(f"{bad} elements are inverted or degenerate")
