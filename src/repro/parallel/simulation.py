"""High-level parallel biomechanical simulation entry point.

This is the function the scaling experiments (Figs. 7-9) call: run the
complete distributed assembly + solve of a brain deformation system at a
given CPU count, optionally attached to a machine model, and report
the per-phase virtual times alongside the (numerically real) solution.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.fem.bc import DirichletBC
from repro.fem.context import CacheStats, SolveContext
from repro.fem.material import BRAIN_HOMOGENEOUS, MaterialMap
from repro.machines.cost import NullTelemetry, VirtualCluster
from repro.machines.spec import MachineSpec
from repro.mesh.partition import (
    partition_block,
    partition_coordinate_bisection,
    partition_work_weighted,
)
from repro.mesh.tetra import TetrahedralMesh
from repro.obs.trace import get_tracer
from repro.parallel.assembly import DistributedSystem, build_distributed_system
from repro.parallel.decomposition import Decomposition
from repro.parallel.solver import (
    PIPELINE_PRECONDITIONER,
    PRECONDITIONERS,
    DistributedBlockJacobi,
    DistributedCoarseCorrection,
    distributed_cg,
    distributed_gmres,
)
from repro.solver.krylov import DEFAULT_SOLVER_TOL, KrylovResult
from repro.util import RankFailure, ValidationError

#: Rank-0 setup work per mesh entity during initialization (mesh load,
#: index construction). Initialization "can be overlapped with earlier
#: image processing" per the paper; it is reported separately.
INIT_FLOPS_PER_ENTITY = 5.0e2

#: Extra virtual compute charged to a rank by an injected ``stall-rank``
#: fault (models one CPU of the cluster briefly dropping out of step).
STALL_VIRTUAL_SECONDS = 30.0

PARTITIONERS = {
    "block": partition_block,
    "work_weighted": partition_work_weighted,
    "coordinate_bisection": partition_coordinate_bisection,
}


@dataclass
class ParallelSimulation:
    """Result of a (virtual-)parallel biomechanical simulation.

    Attributes
    ----------
    displacement:
        ``(n_nodes, 3)`` nodal displacements, original mesh numbering.
    solver:
        Krylov convergence record: CG's for the pipeline's preconditioner,
        GMRES's for the paper's block Jacobi (``restarts`` is 0 for CG).
    n_equations:
        Free unknowns actually solved for.
    n_dof_total:
        3 x n_nodes (the paper's headline equation count).
    initialization_seconds / assembly_seconds / solve_seconds:
        Virtual phase times (zero when no machine model is attached).
    cluster:
        The telemetry object (``VirtualCluster`` or ``NullTelemetry``).
    system:
        The distributed system (exposes partition bookkeeping).
    cache_hit:
        Whether this run reused a prepared :class:`SolveContext` (the
        data-only fast path: no partitioning, assembly, elimination
        slicing, or preconditioner factorization).
    cache_stats:
        Snapshot of the context's hit/miss/invalidation counters after
        this run (``None`` when no context was supplied).
    """

    displacement: np.ndarray
    solver: KrylovResult
    n_equations: int
    n_dof_total: int
    initialization_seconds: float
    assembly_seconds: float
    solve_seconds: float
    cluster: NullTelemetry
    system: DistributedSystem
    cache_hit: bool = False
    cache_stats: CacheStats | None = None

    @property
    def warm_started(self) -> bool:
        """Always ``False``: every solve starts from zero.

        Kept only because the end-to-end benchmark (``benchmarks/e2e/``)
        reads it; it goes with the next change to that benchmark.
        """
        return False

    @property
    def total_seconds(self) -> float:
        """Initialization + assembly + solve (the paper's 'sum' curve)."""
        return self.initialization_seconds + self.assembly_seconds + self.solve_seconds


def mesh_payload_bytes(mesh: TetrahedralMesh) -> float:
    """Bytes of mesh data scattered from the root during initialization."""
    return float(mesh.nodes.nbytes + mesh.elements.nbytes + mesh.materials.nbytes)


class _Setup:
    """The scan-invariant front of :func:`simulate_parallel`.

    Construction checks the partitioner/preconditioner names, matches
    ``context`` against the fingerprint of every input the cached
    distributed state depends on (``cache_hit`` is True on a match), creates
    the telemetry and runs the initialization phase; the methods are the
    later steps that depend on it.
    """

    def __init__(
        self,
        mesh: TetrahedralMesh,
        materials: MaterialMap,
        bc: DirichletBC,
        n_ranks: int,
        machine: MachineSpec | None,
        partitioner: str,
        preconditioner: str,
        factorization: str,
        context: SolveContext | None,
    ):
        if partitioner not in PARTITIONERS:
            raise ValidationError(
                f"unknown partitioner {partitioner!r}; options: {sorted(PARTITIONERS)}"
            )
        if preconditioner not in PRECONDITIONERS:
            raise ValidationError(
                f"unknown preconditioner {preconditioner!r}; options: {list(PRECONDITIONERS)}"
            )
        self.context = context
        self.preconditioner = preconditioner
        self.factorization = factorization
        self.cache_hit = context is not None and context.prepare(
            SolveContext.fingerprint(
                mesh,
                materials,
                bc.node_ids,
                n_ranks=n_ranks,
                partitioner=partitioner,
                preconditioner=preconditioner,
                factorization=factorization,
            )
        )
        self.telemetry = (
            VirtualCluster(machine, n_ranks) if machine is not None else NullTelemetry()
        )
        with get_tracer().span(
            "initialization", kind="phase", n_ranks=n_ranks, cache_hit=self.cache_hit
        ):
            if self.cache_hit:
                # Initialization (mesh scatter, index construction) was done
                # preoperatively — the phase is recorded but charges nothing.
                self.decomposition = context.slots["decomposition"]
                with self.telemetry.phase("initialization"):
                    pass
            else:
                part = PARTITIONERS[partitioner](mesh, n_ranks)
                self.decomposition = Decomposition.from_partition(
                    mesh, part, n_ranks, fixed_nodes=bc.node_ids
                )
                with self.telemetry.phase("initialization"):
                    self.telemetry.compute(
                        0, INIT_FLOPS_PER_ENTITY * (mesh.n_nodes + mesh.n_elements)
                    )
                    self.telemetry.scatter(mesh_payload_bytes(mesh))
                if context is not None:
                    context.slots["decomposition"] = self.decomposition

    def renumbered(self, bc: DirichletBC) -> DirichletBC:
        """``bc`` in the decomposition's node numbering."""
        return DirichletBC(self.decomposition.old_to_new[bc.node_ids], bc.displacements)

    def get_preconditioner(self, system: DistributedSystem, solve_span):
        """The context's factorized preconditioner, built on a miss."""
        if self.cache_hit and "preconditioner" in self.context.slots:
            # Reused subdomain factors: the factorization flops are not
            # charged again — only the per-application triangular solves.
            solve_span.set(preconditioner_reused=True)
            return self.context.slots["preconditioner"]
        matrix = system.matrix
        if self.preconditioner == "block_jacobi":
            pre = DistributedBlockJacobi(
                matrix, self.telemetry, factorization=self.factorization
            )
        else:
            nodes, components = np.divmod(system.free_dofs, 3)
            pre = DistributedCoarseCorrection(
                matrix, system.decomposition.mesh.nodes[nodes], components, self.telemetry
            )
        if self.context is not None:
            self.context.slots["preconditioner"] = pre
        return pre

    def phase_seconds(self) -> tuple[float, float, float]:
        """Virtual (initialization, assembly, solve) seconds; zeros without a machine."""
        if not isinstance(self.telemetry, VirtualCluster):
            return 0.0, 0.0, 0.0
        return tuple(
            self.telemetry.phase_seconds(phase)
            for phase in ("initialization", "assembly", "solve")
        )


def simulate_parallel(
    mesh: TetrahedralMesh,
    bc: DirichletBC,
    n_ranks: int,
    machine: MachineSpec | None = None,
    materials: MaterialMap = BRAIN_HOMOGENEOUS,
    partitioner: str = "block",
    tol: float = DEFAULT_SOLVER_TOL,
    restart: int = 30,
    max_iter: int = 3000,
    factorization: str = "ilu",
    preconditioner: str = "block_jacobi",
    context: SolveContext | None = None,
    faults: Sequence[object] | None = None,
) -> ParallelSimulation:
    """Run the distributed biomechanical simulation at ``n_ranks`` CPUs.

    Parameters
    ----------
    mesh:
        Brain mesh in its original numbering.
    bc:
        Surface displacements (original node numbering).
    machine:
        Attach a :class:`MachineSpec` to obtain virtual phase times on
        one of the paper's architectures; ``None`` runs without
        accounting (e.g. for numerical-equivalence tests).
    partitioner:
        One of ``block`` (paper's equal-node-count scheme),
        ``work_weighted``, ``coordinate_bisection`` (the pipeline's
        default, :class:`repro.core.PipelineConfig`).
    preconditioner:
        ``"block_jacobi"`` (paper configuration) or
        ``"coarse_block_jacobi"`` (a block FSAI, balanced by a rigid-body
        coarse space on more than one rank; the intraoperative pipeline's
        :data:`repro.parallel.solver.PIPELINE_PRECONDITIONER`). The method
        follows from it: CG (:func:`repro.parallel.solver.distributed_cg`)
        for the pipeline's preconditioner, which is SPD, GMRES(``restart``)
        for the paper's; ``restart`` and ``factorization`` concern the
        paper's only. Their defaults (``"block_jacobi"``, ``"ilu"``,
        ``restart=30``) stay the paper's configuration, which Figs. 7-9,
        Ablation C and the end-to-end benchmark's solver probe
        (``benchmarks/e2e/probes.py``) measure; the pipeline passes
        :data:`repro.parallel.solver.PIPELINE_PRECONDITIONER`.
    context:
        A :class:`repro.fem.SolveContext` carrying scan-invariant state
        across calls. On a fingerprint match (same mesh, materials,
        constrained nodes, and solver configuration) the partitioning,
        assembly, elimination slicing, and preconditioner factorization
        are all skipped — the per-scan work is one coupling matvec for
        the right-hand side plus the Krylov solve. A mismatch (resected
        mesh, changed materials) rebuilds and repopulates the context.
        The solve always starts from zero, so a scan's field does not
        depend on the scans solved before it.
    faults:
        Injected solver faults to execute at the start of the solve
        phase — objects exposing ``kind``/``param`` (duck-typed so this
        layer does not import :mod:`repro.resilience`). ``kill-rank``
        raises :class:`repro.util.RankFailure`; ``stall-rank`` charges
        the targeted virtual rank :data:`STALL_VIRTUAL_SECONDS` of extra
        compute before the solve proceeds.
    """
    setup = _Setup(
        mesh, materials, bc, n_ranks, machine, partitioner,
        preconditioner, factorization, context,
    )
    cache_hit, telemetry = setup.cache_hit, setup.telemetry
    tracer = get_tracer()

    with tracer.span("assembly", kind="phase", cache_hit=cache_hit):
        system = build_distributed_system(
            setup.decomposition, materials, setup.renumbered(bc), telemetry,
            context=context, reuse=cache_hit,
        )

    with tracer.span(
        "solve", kind="phase", n_free=system.n_free, preconditioner=preconditioner
    ) as solve_span, telemetry.phase("solve"):
        for spec in faults or ():
            kind = getattr(spec, "kind", None)
            if kind == "kill-rank":
                rank = int(getattr(spec, "param", None) or 0) % max(n_ranks, 1)
                solve_span.event("fault.kill-rank", rank=rank)
                raise RankFailure(
                    f"injected fault: rank {rank} died during the solve phase",
                    rank=rank,
                    phase="solve",
                )
            if kind == "stall-rank":
                rank = int(getattr(spec, "param", None) or 0) % max(n_ranks, 1)
                solve_span.event(
                    "fault.stall-rank", rank=rank, seconds=STALL_VIRTUAL_SECONDS
                )
                if isinstance(telemetry, VirtualCluster):
                    telemetry.compute(
                        rank, STALL_VIRTUAL_SECONDS * telemetry.spec.flops_rate
                    )
        pre = setup.get_preconditioner(system, solve_span)
        solve = dict(preconditioner=pre, tol=tol, max_iter=max_iter, telemetry=telemetry)
        if preconditioner == PIPELINE_PRECONDITIONER:
            result = distributed_cg(system.matrix, system.rhs, **solve)
        else:
            result = distributed_gmres(system.matrix, system.rhs, restart=restart, **solve)

    if isinstance(telemetry, VirtualCluster) and tracer.enabled:
        # Machine-model attribution: the virtual communication/compute
        # split overall and per subdomain (rank), so the trace shows
        # where the modeled architecture spends its time.
        solve_span.set(
            virtual_seconds=telemetry.elapsed,
            virtual_compute_s=telemetry.compute_seconds,
            virtual_comm_s=telemetry.comm_seconds,
        )
        split = telemetry.comm_compute_split()
        for rank in range(telemetry.n_ranks):
            solve_span.event(
                "subdomain",
                rank=rank,
                compute_s=split["compute_s"][rank],
                comm_s=split["comm_s"][rank],
                rows=int(system.matrix.ranges[rank, 1] - system.matrix.ranges[rank, 0]),
            )

    init_s, asm_s, solve_s = setup.phase_seconds()

    return ParallelSimulation(
        displacement=system.displacement_original_order(result.x),
        solver=result,
        n_equations=system.n_free,
        n_dof_total=mesh.n_dof,
        initialization_seconds=init_s,
        assembly_seconds=asm_s,
        solve_seconds=solve_s,
        cluster=telemetry,
        system=system,
        cache_hit=cache_hit,
        cache_stats=context.stats.snapshot() if context is not None else None,
    )


def prepare_solve_context(
    mesh: TetrahedralMesh,
    bc_node_ids: np.ndarray,
    n_ranks: int,
    materials: MaterialMap = BRAIN_HOMOGENEOUS,
    partitioner: str = "block",
    factorization: str = "ilu",
    preconditioner: str = "block_jacobi",
    context: SolveContext | None = None,
) -> SolveContext:
    """Precompute all scan-invariant FEM state (the preoperative phase).

    Runs the full build — partitioning, batched element stiffness,
    symbolic + numeric assembly, Dirichlet-elimination slicing for the
    given constrained node set, and the per-rank preconditioner
    factorization — against zero prescribed displacements, so the
    "solve" is the trivial zero system and costs nothing. The returned
    context makes every subsequent :func:`simulate_parallel` call with
    the same configuration a cache hit, per the paper's observation that
    initialization "can be overlapped with earlier image processing"
    while "time is plentiful" before surgery. ``preconditioner`` and
    ``factorization`` default to the paper's block-Jacobi ILU, as in
    :func:`simulate_parallel`.
    """
    if context is None:
        context = SolveContext()
    node_ids = np.asarray(bc_node_ids, dtype=np.intp)
    bc = DirichletBC(node_ids, np.zeros((len(node_ids), 3)))
    simulate_parallel(
        mesh,
        bc,
        n_ranks,
        machine=None,
        materials=materials,
        partitioner=partitioner,
        factorization=factorization,
        preconditioner=preconditioner,
        context=context,
    )
    return context
