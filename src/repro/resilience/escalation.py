"""Solver escalation ladder for the biomechanical simulation stage.

When the intraoperative solve fails — a dead virtual rank, injected
stagnation, a genuinely hard system — the pipeline does not give up
after one attempt. It climbs a two-rung ladder:

1. ``gmres``       — the nominal path: GMRES from zero with the
   pipeline's preconditioner
   (:data:`repro.parallel.solver.PIPELINE_PRECONDITIONER`, block Jacobi
   with a rigid-body coarse space) on the shared context's cached
   matrices and preconditioner factors.
2. ``ras-gmres``   — a stronger preconditioner (restricted additive
   Schwarz) on an *isolated* context, so the shared per-patient cache
   fingerprint is never clobbered by an emergency configuration.

There is no exact rung: a sparse LU of the paper-size system takes
82.6–90.9 s and ≈ 1.8 GB, far outside the intraoperative budget, so a
scan both rungs fail on goes to the degradation levels
(:mod:`repro.resilience.degrade`) instead.

A :class:`repro.util.RankFailure` on the first rung drops the second to
one rank with no machine model (dynamic resource substitution). Every
rung is recorded as a :class:`RungAttempt` and an ``escalation.rung``
trace event; the ladder never raises — an exhausted
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
from repro.solver.gmres import DEFAULT_SOLVER_TOL
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

    @property
    def last_error(self) -> str | None:
        for attempt in reversed(self.attempts):
            if attempt.error:
                return attempt.error
        return None


def solve_with_escalation(
    mesh: TetrahedralMesh,
    bc: DirichletBC,
    n_ranks: int = 1,
    machine: MachineSpec | None = None,
    materials: MaterialMap = BRAIN_HOMOGENEOUS,
    partitioner: str = "block",
    tol: float = DEFAULT_SOLVER_TOL,
    restart: int = 30,
    context: SolveContext | None = None,
    deadline_s: float | None = None,
    faults: FaultPlan | None = None,
    scan_index: int = 0,
    escalate: bool = True,
) -> EscalationOutcome:
    """Run the biomechanical solve through the escalation ladder.

    The first rung is the nominal :func:`repro.parallel.simulate_parallel`
    call — with no faults and a healthy system the ladder costs nothing
    beyond it. ``deadline_s`` bounds the *whole* ladder: a rung is never
    started after the allowance is spent (the first rung always runs).

    Rung success requires a converged solver *and* a finite displacement
    field inside the physical gate
    (:data:`repro.resilience.guards.DISPLACEMENT_GATE_MM`); anything else
    falls through to the next rung. ``ras-gmres`` runs with an isolated
    (``None``) context so an emergency configuration never invalidates
    the shared per-patient cache.

    ``escalate=False`` (a disabled
    :class:`repro.resilience.ResiliencePolicy`) is the ladder cut to its
    first rung, with that rung's checks and fault injection unchanged
    and its error — ``ConvergenceError``, ``RankFailure``, the gate's
    ``ValidationError`` — raised instead of recorded.
    """
    tracer = get_tracer()
    start = time.perf_counter()
    attempts: list[RungAttempt] = []
    rank_failed = False
    use_ranks = n_ranks
    use_machine = machine

    # Persistent stagnation fault: for this scan, clamp the iteration
    # budget and push the convergence target out of reach, so every
    # rung stagnates by construction — the deterministic route into
    # degradation.
    stagnate = faults.take(scan_index, "stagnate-solver") if faults is not None else None
    limits: dict[str, float] = {"tol": tol}
    if stagnate is not None:
        limits = {"tol": 1e-300, "max_iter": max(1, int(stagnate.param or 2))}

    # One-shot solver faults fire on the first rung that reaches the
    # solve phase, then are consumed.
    pending_faults: list[object] = []
    if faults is not None:
        pending_faults = [
            spec
            for spec in (
                faults.take(scan_index, "kill-rank"),
                faults.take(scan_index, "stall-rank"),
            )
            if spec is not None
        ]

    def take_faults() -> list[object]:
        injected = list(pending_faults)
        pending_faults.clear()
        return injected

    def solve(preconditioner: str, rung_context: SolveContext | None) -> ParallelSimulation:
        return simulate_parallel(
            mesh,
            bc,
            n_ranks=use_ranks,
            machine=use_machine,
            materials=materials,
            partitioner=partitioner,
            restart=restart,
            preconditioner=preconditioner,
            context=rung_context,
            faults=take_faults(),
            **limits,
        )

    # (rung, preconditioner, context): the emergency rung never touches
    # the shared per-patient cache. The first rung's preconditioner is the
    # one the preoperative build prepared the context with, so it hits.
    ladder = [("gmres", PIPELINE_PRECONDITIONER, context), ("ras-gmres", "ras", None)]
    if not escalate:
        del ladder[1:]

    for index, (name, preconditioner, rung_context) in enumerate(ladder):
        elapsed = time.perf_counter() - start
        if deadline_s is not None and index > 0 and elapsed > deadline_s:
            cause = (
                f"solve deadline exhausted after {elapsed:.2f} s "
                f"(> {deadline_s:.2f} s); rungs not tried: "
                + ", ".join(rung[0] for rung in ladder[index:])
            )
            tracer.event("escalation.deadline", elapsed=elapsed, deadline=deadline_s)
            return EscalationOutcome(
                simulation=None, attempts=attempts, rank_failed=rank_failed, cause=cause
            )
        t0 = time.perf_counter()
        try:
            sim = solve(preconditioner, rung_context)
            if not sim.solver.converged:
                raise ConvergenceError(
                    f"{name} rung did not converge",
                    iterations=sim.solver.iterations,
                    residual=sim.solver.residual_norm,
                    solver=name,
                    stage="biomechanical simulation",
                )
            check_displacement_field(sim.displacement, name=f"{name} displacement")
            attempts.append(
                RungAttempt(
                    rung=name,
                    ok=True,
                    seconds=time.perf_counter() - t0,
                    iterations=sim.solver.iterations,
                    residual=sim.solver.residual_norm,
                )
            )
            tracer.event(
                "escalation.rung", rung=name, ok=True, iterations=sim.solver.iterations
            )
            return EscalationOutcome(
                simulation=sim, attempts=attempts, rank_failed=rank_failed
            )
        except RankFailure as exc:
            if not escalate:
                raise
            rank_failed = True
            use_ranks = 1
            use_machine = None
            attempts.append(
                RungAttempt(
                    rung=name,
                    ok=False,
                    seconds=time.perf_counter() - t0,
                    error=f"RankFailure: {exc}",
                )
            )
            tracer.event("escalation.rung", rung=name, ok=False, error="RankFailure")
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
            tracer.event(
                "escalation.rung", rung=name, ok=False, error=type(exc).__name__
            )

    cause = "escalation ladder exhausted"
    last = attempts[-1].error if attempts else None
    if last:
        cause += f" (last: {last})"
    return EscalationOutcome(
        simulation=None, attempts=attempts, rank_failed=rank_failed, cause=cause
    )
