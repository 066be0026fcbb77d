"""Simulated-SPMD parallel decomposition of the FEM pipeline.

The distributed algorithms here mirror the paper's PETSc-based
implementation: nodes are dealt to CPUs (equal counts by default), each
rank assembles the matrix rows of its nodes, boundary conditions are
eliminated locally, and the reduced system is solved with distributed
GMRES preconditioned by block Jacobi (one block per rank) — or, in the
intraoperative pipeline, with distributed CG preconditioned by a block
FSAI under a rigid-body coarse space.

Execution is sequential-in-process but *structurally* parallel: every
rank's local rows, halo index sets, partial dot products and
preconditioner blocks are real, and every unit of work and
communication is reported to a telemetry object — either a no-op, or a
:class:`repro.machines.VirtualCluster` that converts the counts into
virtual wall-clock on one of the paper's three architectures.
"""

from repro.parallel.assembly import DistributedSystem, build_distributed_system
from repro.parallel.decomposition import Decomposition
from repro.parallel.distributed import RowBlockMatrix, distributed_dot, distributed_norm
from repro.parallel.simulation import (
    ParallelSimulation,
    prepare_solve_context,
    simulate_parallel,
)
from repro.parallel.solver import (
    PIPELINE_PRECONDITIONER,
    DistributedBlockFSAI,
    DistributedBlockJacobi,
    DistributedCoarseCorrection,
    DistributedRAS,
    distributed_cg,
    distributed_gmres,
)

__all__ = [
    "PIPELINE_PRECONDITIONER",
    "Decomposition",
    "DistributedBlockFSAI",
    "DistributedBlockJacobi",
    "DistributedCoarseCorrection",
    "DistributedRAS",
    "DistributedSystem",
    "ParallelSimulation",
    "RowBlockMatrix",
    "build_distributed_system",
    "distributed_cg",
    "distributed_dot",
    "distributed_gmres",
    "distributed_norm",
    "prepare_solve_context",
    "simulate_parallel",
]
