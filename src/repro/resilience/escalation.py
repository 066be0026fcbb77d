"""Solver escalation ladder for the biomechanical simulation stage.

When the intraoperative solve fails — a dead virtual rank, injected
stagnation, a genuinely hard system — the pipeline does not give up
after one attempt. It climbs a ladder of progressively more robust (and
more expensive) strategies:

1. ``gmres``       — the nominal path: block-Jacobi GMRES from zero on
   the shared context's cached matrices and preconditioner factors.
2. ``ras-gmres``   — a stronger preconditioner (restricted additive
   Schwarz) on an *isolated* context, so the shared per-patient cache
   fingerprint is never clobbered by an emergency configuration.
3. ``cg``          — conjugate gradients on the reduced SPD system,
   solved serially (an entirely different Krylov method).
4. ``direct``      — sparse LU of the reduced system: slow, but immune
   to Krylov stagnation.

A :class:`repro.util.RankFailure` anywhere on the ladder permanently
drops the remaining rungs to one rank with no machine model (dynamic
resource substitution). Every rung is recorded as a
:class:`RungAttempt` and an ``escalation.rung`` trace event; the ladder
never raises — an exhausted :class:`EscalationOutcome` is returned for
the degradation layer (:mod:`repro.resilience.degrade`) to act on —
unless it was cut to its first rung (``escalate=False``), whose error
propagates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from repro.fem.assembly import assemble_stiffness
from repro.fem.bc import DirichletBC, apply_dirichlet
from repro.fem.context import SolveContext
from repro.fem.material import BRAIN_HOMOGENEOUS, MaterialMap
from repro.fem.model import BiomechanicalModel
from repro.machines.cost import NullTelemetry
from repro.machines.spec import MachineSpec
from repro.mesh.tetra import TetrahedralMesh
from repro.obs.trace import get_tracer
from repro.parallel.simulation import ParallelSimulation, simulate_parallel
from repro.resilience.degrade import serial_as_parallel
from repro.resilience.faults import FaultPlan
from repro.resilience.guards import check_displacement_field
from repro.solver.gmres import DEFAULT_SOLVER_TOL, GMRESResult
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
    max_iter: int = 3000,
    context: SolveContext | None = None,
    gate_mm: float = 200.0,
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
    field inside the ``gate_mm`` physical gate; anything else falls
    through to the next rung. Rungs beyond ``gmres`` run with an
    isolated (``None``) context so emergency configurations never
    invalidate the shared per-patient cache.

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
    # iterative rung stagnates by construction (and the direct rung
    # fails outright) — the deterministic route into degradation.
    stagnate = faults.take(scan_index, "stagnate-solver") if faults is not None else None
    iter_cap = max_iter if stagnate is None else max(1, int(stagnate.param or 2))
    solve_tol = tol if stagnate is None else 1e-300

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

    def rung_gmres() -> ParallelSimulation:
        return simulate_parallel(
            mesh,
            bc,
            n_ranks=use_ranks,
            machine=use_machine,
            materials=materials,
            partitioner=partitioner,
            tol=solve_tol,
            restart=restart,
            max_iter=iter_cap,
            context=context,
            faults=take_faults(),
        )

    def rung_ras() -> ParallelSimulation:
        return simulate_parallel(
            mesh,
            bc,
            n_ranks=use_ranks,
            machine=use_machine,
            materials=materials,
            partitioner=partitioner,
            tol=solve_tol,
            restart=restart,
            max_iter=iter_cap,
            preconditioner="ras",
            context=None,
            faults=take_faults(),
        )

    def rung_cg() -> ParallelSimulation:
        model = BiomechanicalModel(
            mesh=mesh,
            materials=materials,
            solver="cg",
            preconditioner="block_jacobi",
            n_blocks=1,
            tol=solve_tol,
            restart=restart,
            max_iter=iter_cap,
        )
        return serial_as_parallel(model.simulate(bc, context=None))

    def rung_direct() -> ParallelSimulation:
        if stagnate is not None:
            # The injected stagnation models a systemic numerical problem
            # (bad matrix data), which a direct method cannot dodge.
            raise ConvergenceError(
                "injected stagnation fault: direct solve failed",
                iterations=0,
                residual=float("nan"),
                solver="direct",
                stage="biomechanical simulation",
            )
        stiffness = assemble_stiffness(mesh, materials)
        reduced = apply_dirichlet(stiffness, np.zeros(mesh.n_dof), bc)
        x = splu(reduced.matrix.tocsc()).solve(reduced.rhs)
        residual = float(np.linalg.norm(reduced.matrix @ x - reduced.rhs))
        solver = GMRESResult(
            x=x,
            converged=bool(np.isfinite(residual)),
            iterations=1,
            restarts=0,
            residual_norm=residual,
            history=[residual],
        )
        return ParallelSimulation(
            displacement=reduced.expand(x).reshape(-1, 3),
            solver=solver,
            n_equations=reduced.n_free,
            n_dof_total=mesh.n_dof,
            initialization_seconds=0.0,
            assembly_seconds=0.0,
            solve_seconds=0.0,
            cluster=NullTelemetry(),
            system=None,
            cache_hit=False,
            cache_stats=None,
        )

    ladder: list[tuple[str, object]] = [
        ("gmres", rung_gmres),
        ("ras-gmres", rung_ras),
        ("cg", rung_cg),
        ("direct", rung_direct),
    ]
    if not escalate:
        del ladder[1:]

    for index, (name, fn) in enumerate(ladder):
        elapsed = time.perf_counter() - start
        if deadline_s is not None and index > 0 and elapsed > deadline_s:
            cause = (
                f"solve deadline exhausted after {elapsed:.2f} s "
                f"(> {deadline_s:.2f} s); rungs not tried: "
                + ", ".join(n for n, _ in ladder[index:])
            )
            tracer.event("escalation.deadline", elapsed=elapsed, deadline=deadline_s)
            return EscalationOutcome(
                simulation=None, attempts=attempts, rank_failed=rank_failed, cause=cause
            )
        t0 = time.perf_counter()
        try:
            sim = fn()
            if not sim.solver.converged:
                raise ConvergenceError(
                    f"{name} rung did not converge",
                    iterations=sim.solver.iterations,
                    residual=sim.solver.residual_norm,
                    solver=name,
                    stage="biomechanical simulation",
                )
            check_displacement_field(
                sim.displacement, gate_mm, name=f"{name} displacement"
            )
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
