"""Distributed assembly of the reduced elasticity system.

Mirrors the paper's scheme: each CPU receives (approximately) equal
numbers of mesh nodes and assembles the matrix rows of its nodes. An
interface element is recomputed by every rank owning one of its nodes —
the redundant-compute node-owner strategy — so per-rank assembly work is
driven by node connectivity, which is precisely the imbalance the paper
reports. Boundary-condition elimination then happens rank-locally after
a broadcast of the prescribed surface displacements, shrinking each
rank's row block by the number of *its* fixed DOFs — the second,
solve-phase imbalance the paper reports.

Numerically the result is identical to the serial path: tests assert
that the stacked local blocks equal the serial reduced matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fem.assembly import assemble_stiffness
from repro.fem.bc import DirichletBC, apply_dirichlet
from repro.fem.context import AssemblyContext, ReductionContext, SolveContext
from repro.fem.material import MaterialMap
from repro.machines.cost import NullTelemetry
from repro.parallel.decomposition import Decomposition
from repro.parallel.distributed import RowBlockMatrix

_NULL = NullTelemetry()

#: Effective flops to build one 12x12 element stiffness in a year-2000
#: general-purpose FEM code: the arithmetic itself (gradients via 4x4
#: inverse, B assembly, two 6x12 / 12x12 products) is ~3 kflop, but
#: per-element function-call, indexing and property-lookup overhead on
#: the paper's generation of code multiplies that by ~5-8x. Calibrated so
#: serial assembly of the 77,511-equation system lands in the paper's
#: Fig. 7 range (~60 s on one Alpha 21164A).
FLOPS_PER_ELEMENT = 1.7e4
#: Effective flops to scatter one node's 3x12 row block of an element
#: matrix into the global sparse structure (index search + insertion).
FLOPS_PER_INCIDENCE = 1.0e3
#: Flops per eliminated coupling nonzero during BC substitution.
FLOPS_PER_BC_NNZ = 4.0


@dataclass
class DistributedSystem:
    """The reduced distributed system plus ground-truth bookkeeping.

    Attributes
    ----------
    matrix:
        Row-block reduced stiffness (free DOFs only, rank-contiguous).
    rhs:
        Reduced right-hand side.
    free_dofs / fixed_dofs / fixed_values:
        Elimination bookkeeping in the *decomposed* DOF numbering.
    dof_ranges:
        Free-DOF row ranges per rank (reduced numbering).
    decomposition:
        The node decomposition this system was built on.
    """

    matrix: RowBlockMatrix
    rhs: np.ndarray
    free_dofs: np.ndarray
    fixed_dofs: np.ndarray
    fixed_values: np.ndarray
    dof_ranges: np.ndarray
    decomposition: Decomposition

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)

    def expand(self, reduced_solution: np.ndarray) -> np.ndarray:
        """Solution on all decomposed DOFs (free + prescribed)."""
        full = np.empty(self.n_free + len(self.fixed_dofs))
        full[self.free_dofs] = reduced_solution
        full[self.fixed_dofs] = self.fixed_values
        return full

    def displacement_original_order(self, reduced_solution: np.ndarray) -> np.ndarray:
        """Nodal displacements ``(n_nodes, 3)`` in the *original* numbering."""
        full = self.expand(reduced_solution).reshape(-1, 3)
        return full[self.decomposition.old_to_new]


def build_distributed_system(
    decomposition: Decomposition,
    materials: MaterialMap,
    bc: DirichletBC,
    telemetry=_NULL,
    context: SolveContext | None = None,
    reuse: bool = False,
) -> DistributedSystem:
    """Assemble and reduce the system with per-rank work accounting.

    ``bc`` node ids refer to the decomposed mesh numbering (callers using
    original numbering should map through ``decomposition.old_to_new``).

    When ``context`` is given, the scan-invariant pieces (symbolic CSR
    pattern, assembled matrix, elimination structure, row-block split)
    are stored on it; with ``reuse=True`` they are taken from it instead
    of rebuilt, and the per-scan work reduces to the BC broadcast plus
    one coupling-block matvec for the new right-hand side — the data-only
    fast path. The telemetry is charged only for the work actually done,
    so virtual times reflect the skipped assembly.
    """
    mesh = decomposition.mesh
    n_ranks = decomposition.n_ranks

    if reuse and context is not None and context.reduction is not None:
        with telemetry.phase("assembly"):
            # Broadcast of the new prescribed surface displacements; the
            # matrix, its reduction, and the row-block split are reused.
            telemetry.broadcast(
                float(bc.dof_values().nbytes + bc.dof_indices().nbytes)
            )
            telemetry.compute_all(
                np.asarray(context.slots["coupling_per_rank"]) * FLOPS_PER_BC_NNZ
            )
            reduced = context.reduction.reduce(bc.dof_values())
            matrix = context.slots["matrix"]
            free_ranges = context.slots["free_ranges"]
        return DistributedSystem(
            matrix=matrix,
            rhs=reduced.rhs,
            free_dofs=reduced.free_dofs,
            fixed_dofs=reduced.fixed_dofs,
            fixed_values=reduced.fixed_values,
            dof_ranges=free_ranges,
            decomposition=decomposition,
        )

    with telemetry.phase("assembly"):
        # Per-rank assembly work: redundant element recomputation plus
        # row-block scatter, both measured from the actual decomposition.
        elements_per_rank = np.array(
            [len(decomposition.elements_touching(r)) for r in range(n_ranks)],
            dtype=float,
        )
        incidences = decomposition.incidences_per_rank().astype(float)
        telemetry.compute_all(
            elements_per_rank * FLOPS_PER_ELEMENT + incidences * FLOPS_PER_INCIDENCE
        )
        # The numerical assembly itself (vectorized; result identical to
        # stacking the per-rank row strips).
        assembly = AssemblyContext(mesh, materials)
        stiffness = assembly.matrix()

        # Broadcast of prescribed surface displacements to all ranks.
        telemetry.broadcast(float(bc.dof_values().nbytes + bc.dof_indices().nbytes))

        # Rank-local elimination of the prescribed DOFs.
        reduction = ReductionContext(stiffness, bc.dof_indices())
        reduced = reduction.reduce(bc.dof_values(), np.zeros(mesh.n_dof))
        dof_ranges_full = decomposition.dof_ranges()
        is_fixed = np.zeros(mesh.n_dof, dtype=bool)
        is_fixed[reduced.fixed_dofs] = True
        # Elimination work per rank ~ coupling nonzeros in its rows, read
        # off the rank's run of column indices (no row-block copy of K).
        csr = stiffness.tocsr()
        coupling_per_rank = np.zeros(n_ranks)
        free_per_rank = np.zeros(n_ranks, dtype=np.intp)
        for rank, (a, b) in enumerate(dof_ranges_full):
            columns = csr.indices[csr.indptr[a] : csr.indptr[b]]
            coupling_per_rank[rank] = float(np.count_nonzero(is_fixed[columns]))
            free_per_rank[rank] = int(np.count_nonzero(~is_fixed[a:b]))
        telemetry.compute_all(coupling_per_rank * FLOPS_PER_BC_NNZ)

        # Free-DOF ranges are contiguous per rank because elimination
        # preserves DOF order within each rank's block.
        stops = np.cumsum(free_per_rank)
        starts = np.concatenate([[0], stops[:-1]])
        free_ranges = np.stack([starts, stops], axis=1).astype(np.intp)

        matrix = RowBlockMatrix.from_csr(reduced.matrix, free_ranges)
        if context is not None:
            context.assembly, context.reduction = assembly, reduction
            context.slots["matrix"] = matrix
            context.slots["free_ranges"] = free_ranges
            context.slots["coupling_per_rank"] = coupling_per_rank

    return DistributedSystem(
        matrix=matrix,
        rhs=reduced.rhs,
        free_dofs=reduced.free_dofs,
        fixed_dofs=reduced.fixed_dofs,
        fixed_values=reduced.fixed_values,
        dof_ranges=free_ranges,
        decomposition=decomposition,
    )


def serial_reference_system(
    decomposition: Decomposition, materials: MaterialMap, bc: DirichletBC
):
    """Serial reduced system on the decomposed mesh (for equivalence tests)."""
    stiffness = assemble_stiffness(decomposition.mesh, materials)
    return apply_dirichlet(stiffness, np.zeros(decomposition.mesh.n_dof), bc)
