"""Unstructured tetrahedral meshing of labeled medical volumes.

The paper implements "a tetrahedral mesh generator specifically suited
for labeled 3D medical images ... the volumetric counterpart of a
marching tetrahedra surface generation algorithm" [Ferrant et al.,
MICCAI'99]: a fully connected, consistent multi-material tetrahedral
mesh whose cells carry the tissue class of the segmentation, from which
boundary surfaces can be extracted as triangulated surfaces for the
active-surface stage.

This subpackage provides the mesh container, the labeled-volume mesher
(Freudenthal 6-tetrahedra subdivision of a coarse cell grid, conforming
across cells), boundary-surface extraction, element quality metrics, and
the node partitioners used by the parallel decomposition.
"""

from repro.mesh.editing import MeshEdit, remove_elements_by_material, remove_elements_in_mask
from repro.mesh.generator import GridTetraMesher, mesh_labeled_volume, mesh_with_target_nodes
from repro.mesh.partition import (
    partition_block,
    partition_coordinate_bisection,
    partition_work_weighted,
)
from repro.mesh.quality import aspect_ratios, quality_report
from repro.mesh.surface import TriangleSurface, extract_boundary_surface
from repro.mesh.tetra import TetrahedralMesh

__all__ = [
    "GridTetraMesher",
    "MeshEdit",
    "TetrahedralMesh",
    "TriangleSurface",
    "aspect_ratios",
    "extract_boundary_surface",
    "mesh_labeled_volume",
    "mesh_with_target_nodes",
    "partition_block",
    "partition_coordinate_bisection",
    "partition_work_weighted",
    "remove_elements_by_material",
    "remove_elements_in_mask",
    "quality_report",
]
