"""Predictive biomechanical simulation (gravity-driven brain shift).

Beyond registration, the paper motivates the biomechanical model by its
predictive power: "Biomechanically accurate registration of brain scans
acquired during surgery ... has the potential ... to enable prediction
of surgical changes" — unlike image-driven approaches, the FEM can be
*loaded* rather than fitted. This module implements the canonical
predictive scenario (cf. Miga et al., the paper's ref. [4]): after the
craniotomy, the unsupported brain sags under gravity while remaining
tethered where it rests against the skull.

Units: materials store E in pascals, the mesh is in millimetres.
Internally the solve uses the consistent (N, mm, MPa) system — E is
scaled to N/mm^2 and the gravity body-force density
``rho * g`` (N/m^3) to N/mm^3 — so displacements come out in mm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fem.bc import DirichletBC
from repro.fem.material import LinearElasticMaterial, MaterialMap
from repro.fem.model import BiomechanicalModel, SimulationResult
from repro.mesh.surface import extract_boundary_surface
from repro.mesh.tetra import TetrahedralMesh
from repro.util import ValidationError

#: Brain tissue mass density (kg/m^3).
BRAIN_DENSITY = 1040.0
#: Standard gravity (m/s^2).
STANDARD_GRAVITY = 9.81


def _to_mpa(materials: MaterialMap) -> MaterialMap:
    """Scale a Pa-based material map to N/mm^2 (MPa)."""
    scaled = tuple(
        (
            label,
            LinearElasticMaterial(m.name, m.young_modulus * 1e-6, m.poisson_ratio),
        )
        for label, m in materials.materials
    )
    default = materials.default
    if default is not None:
        default = LinearElasticMaterial(
            default.name, default.young_modulus * 1e-6, default.poisson_ratio
        )
    return MaterialMap(scaled, default)


def support_nodes(
    mesh: TetrahedralMesh,
    gravity_direction: np.ndarray,
    support_fraction: float = 0.25,
) -> np.ndarray:
    """Surface nodes resting against the skull, opposite the opening.

    The nodes of the boundary surface whose coordinate along the gravity
    direction lies within the lowest ``support_fraction`` of the brain's
    extent are treated as supported (zero displacement): with the
    patient positioned so the craniotomy faces up, the brain rests on
    the skull below.
    """
    if not 0.0 < support_fraction < 1.0:
        raise ValidationError(f"support_fraction must be in (0, 1), got {support_fraction}")
    g = np.asarray(gravity_direction, dtype=float)
    norm = np.linalg.norm(g)
    if norm == 0:
        raise ValidationError("gravity_direction must be nonzero")
    g = g / norm
    surface = extract_boundary_surface(mesh)
    heights = surface.vertices @ g  # larger = further along gravity (down)
    lo, hi = heights.min(), heights.max()
    cut = lo + (hi - lo) * (1.0 - support_fraction)
    supported = surface.mesh_nodes[heights >= cut]
    if len(supported) == 0:
        raise ValidationError("no support nodes found; increase support_fraction")
    return supported


@dataclass
class ShiftPrediction:
    """Outcome of :func:`predict_gravity_shift`.

    Attributes
    ----------
    displacement:
        ``(n_nodes, 3)`` predicted displacement (mm).
    simulation:
        The underlying FEM solve record.
    fixed_nodes:
        The support nodes held at zero displacement.
    """

    displacement: np.ndarray
    simulation: SimulationResult
    fixed_nodes: np.ndarray

    @property
    def peak_mm(self) -> float:
        return float(np.linalg.norm(self.displacement, axis=1).max())


def predict_gravity_shift(
    mesh: TetrahedralMesh,
    materials: MaterialMap,
    gravity_direction: np.ndarray = (0.0, 0.0, -1.0),
    density_kg_m3: float = BRAIN_DENSITY,
    gravity_m_s2: float = STANDARD_GRAVITY,
    buoyancy_fraction: float = 0.85,
    support_fraction: float = 0.25,
    fixed_nodes: np.ndarray | None = None,
) -> ShiftPrediction:
    """Predict gravity-induced brain shift after CSF drainage.

    Parameters
    ----------
    gravity_direction:
        World-space direction the brain sags toward (e.g. the inward
        craniotomy normal for a craniotomy-up positioning).
    buoyancy_fraction:
        Before the dura is opened, the brain floats in CSF; draining
        removes buoyant support. The effective load is
        ``(1 - buoyancy_fraction)`` of full weight while submerged and
        grows toward full weight as CSF drains; callers model drainage
        by lowering this value. Default 0.85 reflects partial drainage.
    support_fraction:
        Passed to :func:`support_nodes` when ``fixed_nodes`` is None.
    """
    if not 0.0 <= buoyancy_fraction < 1.0:
        raise ValidationError(
            f"buoyancy_fraction must be in [0, 1), got {buoyancy_fraction}"
        )
    g = np.asarray(gravity_direction, dtype=float)
    norm = np.linalg.norm(g)
    if norm == 0:
        raise ValidationError("gravity_direction must be nonzero")
    g = g / norm

    if fixed_nodes is None:
        fixed_nodes = support_nodes(mesh, g, support_fraction)
    bc = DirichletBC(fixed_nodes, np.zeros((len(fixed_nodes), 3)))

    # N/m^3 -> N/mm^3.
    force_density = (
        density_kg_m3 * gravity_m_s2 * (1.0 - buoyancy_fraction) * 1e-9
    )
    body_force = force_density * g  # (3,) N/mm^3

    model = BiomechanicalModel(mesh, materials=_to_mpa(materials))
    result = model.simulate(bc, body_force=body_force)
    return ShiftPrediction(
        displacement=result.displacement,
        simulation=result,
        fixed_nodes=np.asarray(fixed_nodes),
    )
