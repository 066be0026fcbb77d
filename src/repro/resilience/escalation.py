"""Solver escalation ladder for the biomechanical simulation stage.

The ladder is one rung, ``cg``: the pipeline's solve from zero — CG
with the pipeline's preconditioner
(:data:`repro.parallel.solver.PIPELINE_PRECONDITIONER`, block FSAI with
a rigid-body coarse space) on the shared context's cached matrices and
preconditioner. Journals written while the rungs were still named
``gmres`` / ``gmres@1`` keep that text: they are read, never re-derived.

A :class:`repro.util.RankFailure` — and only that — earns one retry,
``cg@1``: the same preconditioner (block FSAI alone, nothing factored)
on one rank with no machine model
(dynamic resource substitution), on an *isolated* context so the shared
per-patient cache fingerprint is never clobbered by the emergency
configuration, and only while ``deadline_s`` allows. A scan that
stagnates or fails its checks goes straight to the degradation levels
(:mod:`repro.resilience.degrade`): a second solve of the same system
with a stronger preconditioner stagnates too, and there is no exact
rung — a sparse LU of the paper-size system takes 82.6–90.9 s and
≈ 1.8 GB, far outside the intraoperative budget.

Every attempt is recorded as a :class:`RungAttempt` and an
``escalation.rung`` trace event; the ladder never raises — an exhausted
:class:`EscalationOutcome` is returned for the degradation layer to act
on — unless it was cut to its first rung (``escalate=False``), whose
error propagates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.fem.bc import DirichletBC
from repro.fem.context import SolveContext
from repro.fem.material import BRAIN_HOMOGENEOUS, MaterialMap
from repro.machines.spec import MachineSpec
from repro.mesh.tetra import TetrahedralMesh
from repro.obs.trace import get_tracer
from repro.parallel.simulation import ParallelSimulation, simulate_parallel
from repro.parallel.solver import PIPELINE_PRECONDITIONER
from repro.resilience.faults import FaultPlan
from repro.resilience.guards import check_displacement_field
from repro.solver.krylov import DEFAULT_SOLVER_TOL
from repro.util import ConvergenceError, RankFailure, ReproError


@dataclass
class RungAttempt:
    """One rung of the ladder, as actually executed."""

    rung: str
    ok: bool
    seconds: float
    iterations: int = 0
    residual: float = float("nan")
    error: str | None = None


@dataclass
class EscalationOutcome:
    """What the ladder produced (or why it could not produce anything).

    ``simulation`` is ``None`` when every rung failed or the deadline
    ran out; ``cause`` then explains it and the degradation layer takes
    over.
    """

    simulation: ParallelSimulation | None
    attempts: list[RungAttempt] = field(default_factory=list)
    rank_failed: bool = False
    cause: str | None = None

    @property
    def succeeded(self) -> bool:
        return self.simulation is not None

    @property
    def escalated(self) -> bool:
        return len(self.attempts) > 1

    @property
    def rungs_tried(self) -> list[str]:
        return [a.rung for a in self.attempts]


def solve_with_escalation(
    mesh: TetrahedralMesh,
    bc: DirichletBC,
    n_ranks: int = 1,
    machine: MachineSpec | None = None,
    materials: MaterialMap = BRAIN_HOMOGENEOUS,
    partitioner: str = "block",
    tol: float = DEFAULT_SOLVER_TOL,
    context: SolveContext | None = None,
    deadline_s: float | None = None,
    faults: FaultPlan | None = None,
    scan_index: int = 0,
    escalate: bool = True,
) -> EscalationOutcome:
    """Run the biomechanical solve through the escalation ladder.

    The ``cg`` rung is the nominal :func:`repro.parallel.simulate_parallel`
    call — with no faults and a healthy system the ladder costs nothing
    beyond it. ``deadline_s`` bounds the *whole* ladder: the ``cg@1``
    retry after a rank failure is never started once the allowance is
    spent (the first rung always runs).

    An attempt succeeds on a converged solver *and* a finite displacement
    field inside the physical gate
    (:data:`repro.resilience.guards.DISPLACEMENT_GATE_MM`).

    ``escalate=False`` (a disabled
    :class:`repro.resilience.ResiliencePolicy`) is the ladder without its
    retry, with the rung's checks and fault injection unchanged and its
    error — ``ConvergenceError``, ``RankFailure``, the gate's
    ``ValidationError`` — raised instead of recorded.
    """
    tracer = get_tracer()
    start = time.perf_counter()
    attempts: list[RungAttempt] = []

    # Persistent stagnation fault: for this scan, clamp the iteration
    # budget and push the convergence target out of reach, so the solve
    # stagnates by construction — the deterministic route into
    # degradation.
    stagnate = faults.take(scan_index, "stagnate-solver") if faults is not None else None
    limits: dict[str, float] = {"tol": tol}
    if stagnate is not None:
        limits = {"tol": 1e-300, "max_iter": max(1, int(stagnate.param or 2))}

    # One-shot solver faults fire on the first rung's solve phase.
    injected = []
    if faults is not None:
        injected = [
            spec
            for spec in (
                faults.take(scan_index, "kill-rank"),
                faults.take(scan_index, "stall-rank"),
            )
            if spec is not None
        ]

    def attempt(name: str, **run) -> ParallelSimulation | ReproError:
        """One checked solve on the pipeline's preconditioner: the
        simulation, or the error that ended it (raised when not escalating)."""
        t0 = time.perf_counter()
        try:
            sim = simulate_parallel(
                mesh,
                bc,
                materials=materials,
                partitioner=partitioner,
                preconditioner=PIPELINE_PRECONDITIONER,
                **run,
                **limits,
            )
            if not sim.solver.converged:
                raise ConvergenceError(
                    f"{name} rung did not converge",
                    iterations=sim.solver.iterations,
                    residual=sim.solver.residual_norm,
                    solver=name,
                    stage="biomechanical simulation",
                )
            check_displacement_field(sim.displacement, name=f"{name} displacement")
        except ReproError as exc:
            if not escalate:
                raise
            attempts.append(
                RungAttempt(
                    rung=name,
                    ok=False,
                    seconds=time.perf_counter() - t0,
                    iterations=int(getattr(exc, "iterations", -1)),
                    residual=float(getattr(exc, "residual", float("nan"))),
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            tracer.event("escalation.rung", rung=name, ok=False, error=type(exc).__name__)
            return exc
        attempts.append(
            RungAttempt(
                rung=name,
                ok=True,
                seconds=time.perf_counter() - t0,
                iterations=sim.solver.iterations,
                residual=sim.solver.residual_norm,
            )
        )
        tracer.event("escalation.rung", rung=name, ok=True, iterations=sim.solver.iterations)
        return sim

    result = attempt(
        "cg", n_ranks=n_ranks, machine=machine, context=context, faults=injected
    )
    rank_failed = isinstance(result, RankFailure)
    if rank_failed:
        elapsed = time.perf_counter() - start
        if deadline_s is not None and elapsed > deadline_s:
            tracer.event("escalation.deadline", elapsed=elapsed, deadline=deadline_s)
            return EscalationOutcome(
                simulation=None,
                attempts=attempts,
                rank_failed=True,
                cause=(
                    f"solve deadline exhausted after {elapsed:.2f} s "
                    f"(> {deadline_s:.2f} s); rungs not tried: cg@1"
                ),
            )
        result = attempt("cg@1", n_ranks=1, machine=None, context=None)
    if isinstance(result, ReproError):
        return EscalationOutcome(
            simulation=None,
            attempts=attempts,
            rank_failed=rank_failed,
            cause=f"escalation ladder exhausted (last: {attempts[-1].error})",
        )
    return EscalationOutcome(simulation=result, attempts=attempts, rank_failed=rank_failed)
