"""Triangulated boundary surfaces extracted from the volumetric mesh.

"Boundary surfaces of objects represented in the mesh can be extracted
from the mesh as triangulated surfaces, which is convenient for running
an active surface algorithm."
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mesh.tetra import TetrahedralMesh
from repro.util import MeshError, ShapeError


@dataclass
class TriangleSurface:
    """A triangulated surface with outward-oriented faces.

    Attributes
    ----------
    vertices:
        ``(v, 3)`` world coordinates.
    triangles:
        ``(t, 3)`` vertex index triples, counter-clockwise seen from
        outside.
    mesh_nodes:
        Optional ``(v,)`` map from surface vertex to the originating
        volumetric-mesh node index — this is the link that lets
        active-surface displacements become FEM boundary conditions.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    mesh_nodes: np.ndarray | None = None
    _vertex_normals: np.ndarray | None = field(default=None, repr=False, compare=False)
    _adjacency: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.triangles = np.asarray(self.triangles, dtype=np.intp)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ShapeError(f"vertices must be (v, 3), got {self.vertices.shape}")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ShapeError(f"triangles must be (t, 3), got {self.triangles.shape}")
        if len(self.triangles) and self.triangles.max() >= len(self.vertices):
            raise MeshError("triangle refers to a vertex index out of range")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def triangle_normals(self, vertices: np.ndarray | None = None) -> np.ndarray:
        """Unit outward normals per triangle (for given vertex positions)."""
        v = self.vertices if vertices is None else np.asarray(vertices, dtype=float)
        p = v[self.triangles]
        n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        norms = np.linalg.norm(n, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return n / norms

    def vertex_normals(self, vertices: np.ndarray | None = None) -> np.ndarray:
        """Area-weighted unit vertex normals (for given vertex positions)."""
        v = self.vertices if vertices is None else np.asarray(vertices, dtype=float)
        p = v[self.triangles]
        face_n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])  # area-weighted
        out = np.zeros_like(v)
        for corner in range(3):
            np.add.at(out, self.triangles[:, corner], face_n)
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return out / norms

    def adjacency_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Surface-edge adjacency as ``(flat, offsets)`` index arrays.

        The neighbours of vertex ``v`` are ``flat[offsets[v]:offsets[v + 1]]``,
        ascending. Topology-only and therefore cached: the active surface
        builds a membrane over the same surface on every scan. Callers
        must not write to the arrays.
        """
        if self._adjacency is None:
            n = self.n_vertices
            a = self.triangles.T.reshape(-1)  # corners 0, 1, 2 ...
            b = np.roll(self.triangles, -1, axis=1).T.reshape(-1)  # ... and 1, 2, 0
            # Each directed edge once, sorted by (from, to).
            source, flat = np.divmod(np.unique(np.concatenate([a * n + b, b * n + a])), n)
            degrees = np.bincount(source, minlength=n)
            self._adjacency = (flat, np.concatenate([[0], np.cumsum(degrees)]))
        return self._adjacency

    def vertex_adjacency(self) -> list[np.ndarray]:
        """Adjacent vertex index arrays per vertex (surface edges)."""
        flat, offsets = self.adjacency_csr()
        return [flat[offsets[v] : offsets[v + 1]] for v in range(self.n_vertices)]

    def area(self, vertices: np.ndarray | None = None) -> float:
        v = self.vertices if vertices is None else np.asarray(vertices, dtype=float)
        p = v[self.triangles]
        n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        return float(0.5 * np.linalg.norm(n, axis=1).sum())


def extract_boundary_surface(
    mesh: TetrahedralMesh, materials: tuple[int, ...] | None = None
) -> TriangleSurface:
    """Extract the outward-oriented boundary of a material region.

    The surface vertices are a compacted copy of the boundary mesh nodes;
    :attr:`TriangleSurface.mesh_nodes` records the original node indices
    so surface displacements can be imposed on the volumetric model.
    """
    faces, _owners = mesh.boundary_faces(materials)
    if len(faces) == 0:
        raise MeshError("selected materials have no boundary faces")
    used = np.unique(faces)
    new_index = np.full(mesh.n_nodes, -1, dtype=np.intp)
    new_index[used] = np.arange(len(used))
    return TriangleSurface(
        vertices=mesh.nodes[used],
        triangles=new_index[faces],
        mesh_nodes=used,
    )
