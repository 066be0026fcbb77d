"""Mesh editing for intraoperative domain changes.

"The final scan in each sequence exhibits significant nonrigid
deformation and loss of tissue due to tumor resection." Once tissue is
removed, the preoperative mesh no longer matches the physical domain:
elements inside the resection cavity must be deleted before the
biomechanical model is solved on the post-resection anatomy. This
module removes elements whose centroids fall in a cavity mask (or carry
given material labels) and keeps the result mechanically sound (largest
face-connected component, compacted node numbering).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imaging.resample import trilinear_sample
from repro.imaging.volume import ImageVolume
from repro.mesh.tetra import TET_FACES, TetrahedralMesh
from repro.util import MeshError, check_volume_like


@dataclass
class MeshEdit:
    """Result of a mesh edit.

    Attributes
    ----------
    mesh:
        The edited (compacted) mesh.
    node_map:
        Old node index -> new node index (-1 for dropped nodes).
    removed_elements:
        Number of elements removed (including mechanism cleanup).
    """

    mesh: TetrahedralMesh
    node_map: np.ndarray
    removed_elements: int

    def map_node_ids(self, node_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map old node indices to the edited mesh.

        Returns ``(new_ids, kept_mask)`` where ``kept_mask`` marks the
        entries that survived the edit.
        """
        node_ids = np.asarray(node_ids, dtype=np.intp)
        mapped = self.node_map[node_ids]
        kept = mapped >= 0
        return mapped[kept], kept


def remove_elements_in_mask(
    mesh: TetrahedralMesh,
    cavity_mask: np.ndarray,
    reference: ImageVolume,
    keep_largest_component: bool = True,
) -> MeshEdit:
    """Remove elements whose centroid lies inside a cavity mask.

    Parameters
    ----------
    cavity_mask:
        Boolean volume (e.g. the RESECTION class of the intraoperative
        segmentation) on the grid of ``reference``.
    """
    mask = check_volume_like(cavity_mask, "cavity_mask").astype(float)
    inside = trilinear_sample(
        reference.copy(mask), mesh.element_centroids(), fill_value=0.0, nearest=True
    ).astype(bool)
    return _apply_removal(mesh, ~inside, keep_largest_component)


def remove_elements_by_material(
    mesh: TetrahedralMesh,
    materials: tuple[int, ...],
    keep_largest_component: bool = True,
) -> MeshEdit:
    """Remove every element carrying one of the given material labels."""
    keep = ~np.isin(mesh.materials, np.asarray(materials))
    return _apply_removal(mesh, keep, keep_largest_component)


def _largest_face_connected(elements: np.ndarray) -> np.ndarray:
    """Boolean mask of the largest face-connected element component.

    Tetrahedra that touch the main body only through a vertex or an
    edge form zero-energy mechanisms (they can hinge freely), which
    makes the stiffness matrix singular under partial-support boundary
    conditions. Keeping one face-connected component removes them. An
    edited mesh has no grid to read neighbours from (the generator's
    filter does), so shared faces are found by sorting face keys.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    m = len(elements)
    if m <= 1:
        return np.ones(m, dtype=bool)
    faces = elements[:, TET_FACES].reshape(-1, 3)
    key = np.sort(faces, axis=1)
    owners = np.repeat(np.arange(m), 4)
    order = np.lexsort((key[:, 2], key[:, 1], key[:, 0]))
    key_sorted = key[order]
    owners_sorted = owners[order]
    same = np.all(key_sorted[:-1] == key_sorted[1:], axis=1)
    a = owners_sorted[:-1][same]
    b = owners_sorted[1:][same]
    graph = coo_matrix(
        (np.ones(len(a)), (a, b)), shape=(m, m)
    )
    n_comp, labels_ = connected_components(graph, directed=False)
    if n_comp == 1:
        return np.ones(m, dtype=bool)
    counts = np.bincount(labels_)
    return labels_ == np.argmax(counts)


def _apply_removal(
    mesh: TetrahedralMesh, keep: np.ndarray, keep_largest_component: bool
) -> MeshEdit:
    if not keep.any():
        raise MeshError("edit would remove every element")
    kept_elements = mesh.elements[keep]
    kept_materials = mesh.materials[keep]
    if keep_largest_component:
        component = _largest_face_connected(kept_elements)
        kept_elements = kept_elements[component]
        kept_materials = kept_materials[component]
    edited = TetrahedralMesh(mesh.nodes, kept_elements, kept_materials)
    compacted, node_map = edited.compact()
    compacted.validate()
    return MeshEdit(
        mesh=compacted,
        node_map=node_map,
        removed_elements=mesh.n_elements - compacted.n_elements,
    )
