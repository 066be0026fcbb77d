"""The elastic membrane model of the active surface.

Internal elasticity is the umbrella-operator (uniform graph Laplacian)
of the triangulated surface: each vertex is pulled toward the centroid
of its neighbours, regularizing the evolution while external image
forces drag the membrane toward the target. Adjacency is flattened into
index arrays once so each smoothing step is a single vectorized gather.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.surface import TriangleSurface
from repro.util import ShapeError


class ElasticMembrane:
    """A deformable copy of a triangulated surface.

    Parameters
    ----------
    surface:
        The rest-configuration surface (vertex connectivity is reused;
        positions evolve).
    """

    def __init__(
        self,
        surface: TriangleSurface,
        initial_positions: np.ndarray | None = None,
        rest_positions: np.ndarray | None = None,
    ):
        self.surface = surface
        self.positions = (
            surface.vertices.copy()
            if initial_positions is None
            else np.asarray(initial_positions, dtype=float).copy()
        )
        self.rest = (
            surface.vertices.copy()
            if rest_positions is None
            else np.asarray(rest_positions, dtype=float).copy()
        )
        if self.positions.shape != surface.vertices.shape:
            raise ShapeError("initial_positions must match surface vertex array")
        if self.rest.shape != surface.vertices.shape:
            raise ShapeError("rest_positions must match surface vertex array")
        self._flat_adjacency, offsets = surface.adjacency_csr()
        degrees = np.diff(offsets)
        self._degrees = np.maximum(degrees, 1)
        # Segment-sum matrix-free: repeat vertex ids per adjacency entry.
        self._segment_ids = np.repeat(np.arange(surface.n_vertices), degrees)

    @property
    def n_vertices(self) -> int:
        return self.surface.n_vertices

    def reset(self) -> None:
        self.positions = self.rest.copy()

    def laplacian(self, field: np.ndarray | None = None) -> np.ndarray:
        """Umbrella operator of a per-vertex field (default: positions).

        Returns neighbour mean minus value, per vertex.
        """
        values = self.positions if field is None else np.asarray(field, dtype=float)
        neighbours = values[self._flat_adjacency]
        # Per-axis weighted bincount: accumulates each vertex's neighbours
        # left to right exactly as a scatter-add does (np.add.reduceat
        # associates the sum differently and moves the last bit), and
        # leaves zero-degree vertices at 0.
        neighbour_sum = np.stack(
            [
                np.bincount(self._segment_ids, neighbours[:, a], self.n_vertices)
                for a in range(values.shape[1])
            ],
            axis=1,
        )
        return neighbour_sum / self._degrees[:, None] - values

    def step(
        self,
        external_force: np.ndarray,
        step_size: float,
        smoothing: float,
    ) -> float:
        """One explicit evolution step; returns the mean vertex move (mm).

        The internal elastic force is the umbrella Laplacian of the
        *displacement* field (not of the positions): it penalizes
        non-smooth deviation from the rest shape, so — unlike position
        smoothing — it does not shrink the membrane.

        ``positions += step * (smoothing * L(u) + external)`` with
        ``u = positions - rest``.
        """
        force = np.asarray(external_force, dtype=float)
        if force.shape != self.positions.shape:
            raise ShapeError(
                f"external force must be {self.positions.shape}, got {force.shape}"
            )
        move = step_size * (smoothing * self.laplacian(self.displacements()) + force)
        self.positions += move
        return float(np.linalg.norm(move, axis=1).mean())

    def displacements(self) -> np.ndarray:
        """Current displacement of every vertex from its rest position."""
        return self.positions - self.rest
