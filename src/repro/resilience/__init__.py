"""Intraoperative resilience: fault injection, escalation, degradation.

The operating-room contract this package implements: *the session never
aborts*. Every intraoperative scan produces the best compensation still
achievable — full-FEM when the system is healthy, a coarser FEM solve /
the previous scan's field / rigid-only when it is not — with a
:class:`DegradationReport` saying exactly what happened and why.

Modules
-------
:mod:`~repro.resilience.faults`
    Deterministic, seedable fault injection (:class:`FaultPlan`).
:mod:`~repro.resilience.policy`
    The three settings (:class:`ResiliencePolicy`) and the ordered
    :class:`DegradationLevel` ladder.
:mod:`~repro.resilience.guards`
    Per-stage retry guards and boundary validators.
:mod:`~repro.resilience.escalation`
    The solver escalation ladder (``gmres``, retried once on one rank
    as ``gmres@1`` after a rank failure).
:mod:`~repro.resilience.degrade`
    Graceful-degradation fallbacks and the report attached to results.
"""

from repro.resilience.degrade import (
    DegradationReport,
    FallbackField,
    coarse_fem_fallback,
    previous_field_fallback,
    rigid_only_fallback,
    stub_correspondence,
    synthetic_simulation,
)
from repro.resilience.escalation import (
    EscalationOutcome,
    RungAttempt,
    solve_with_escalation,
)
from repro.resilience.faults import (
    CRASH_STAGES,
    FAULT_KINDS,
    PROCESS_FAULTS,
    SCAN_FAULTS,
    SERVING_FAULTS,
    SOLVER_FAULTS,
    WIRE_FAULTS,
    FaultPlan,
    FaultSpec,
    ServingFaultPlan,
    ServingFaultSpec,
)
from repro.resilience.guards import (
    GuardReport,
    StageGuard,
    check_displacement_field,
    check_finite_array,
    check_mesh_usable,
)
from repro.resilience.policy import (
    DegradationLevel,
    ResiliencePolicy,
    parse_level,
)

__all__ = [
    "CRASH_STAGES",
    "FAULT_KINDS",
    "PROCESS_FAULTS",
    "SCAN_FAULTS",
    "SERVING_FAULTS",
    "SOLVER_FAULTS",
    "WIRE_FAULTS",
    "DegradationLevel",
    "DegradationReport",
    "EscalationOutcome",
    "FallbackField",
    "FaultPlan",
    "FaultSpec",
    "GuardReport",
    "ResiliencePolicy",
    "RungAttempt",
    "ServingFaultPlan",
    "ServingFaultSpec",
    "StageGuard",
    "check_displacement_field",
    "check_finite_array",
    "check_mesh_usable",
    "coarse_fem_fallback",
    "parse_level",
    "previous_field_fallback",
    "rigid_only_fallback",
    "solve_with_escalation",
    "stub_correspondence",
    "synthetic_simulation",
]
