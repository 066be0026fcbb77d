"""Active surface correspondence detection.

"The active surface algorithm iteratively deforms the surface of the
first brain volume to match that of the second volume ... by applying
forces derived from the volumetric data to an elastic membrane model of
the surface. The derived forces are a decreasing function of the data
gradients, so as to be minimized at the edges of objects in the volume.
To increase robustness and the convergence rate of the process, we have
included prior knowledge about the expected gray level and gradients of
the objects being matched." [Ferrant et al., SPIE MI'99]

Here the elastic membrane is a triangulated brain surface extracted
from the volumetric mesh; the external force field is built either from
the intraoperative segmentation (signed-distance attraction — the
"reliable target" the intraoperative pipeline produces) or from raw
image gradients with a gray-level prior.
"""

from repro.surface.correspondence import (
    CorrespondenceResult,
    snap_surface,
    surface_correspondence,
)
from repro.surface.evolve import ActiveSurfaceResult, evolve_surface
from repro.surface.forces import (
    DistanceForceField,
    GradientForceField,
)
from repro.surface.membrane import ElasticMembrane

__all__ = [
    "ActiveSurfaceResult",
    "CorrespondenceResult",
    "DistanceForceField",
    "ElasticMembrane",
    "GradientForceField",
    "evolve_surface",
    "snap_surface",
    "surface_correspondence",
]
