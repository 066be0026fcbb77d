"""Resilience policy: the master switch and the degradation bounds.

One dataclass holds the three settings of the intraoperative resilience
layer that anything sets — the CLI, the serving pool and the checkpoint
manifest. The gates, retry counts and fallback sizes it once also held
had one value each; they live beside the code that uses them. The
clinical contract it encodes (per the per-operative neuronavigator
framework): *always return a compensation* — full-FEM when possible, a
degraded one when not — inside a bounded time, and never let one bad
acquisition abort the session.

This module depends only on :mod:`repro.util` so the core config can
embed a policy without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.util import ValidationError


class DegradationLevel(IntEnum):
    """Ordered fallback ladder for the per-scan result.

    Lower is better; each level is the best compensation still
    achievable when everything above it has failed.
    """

    FULL_FEM = 0  #: full-resolution biomechanical result (possibly after escalation)
    COARSE_FEM = 1  #: biomechanical result on a coarser mesh
    PREVIOUS_FIELD = 2  #: previous scan's deformation field re-applied
    RIGID_ONLY = 3  #: rigid registration only, zero volumetric deformation

    @property
    def label(self) -> str:
        return _LEVEL_LABELS[self]


_LEVEL_LABELS = {
    DegradationLevel.FULL_FEM: "full-fem",
    DegradationLevel.COARSE_FEM: "coarse-fem",
    DegradationLevel.PREVIOUS_FIELD: "previous-field",
    DegradationLevel.RIGID_ONLY: "rigid-only",
}

#: CLI-friendly names (``--max-degradation coarse-fem``).
LEVEL_BY_NAME = {label: level for level, label in _LEVEL_LABELS.items()}


@dataclass
class ResiliencePolicy:
    """Settings for the intraoperative resilience layer.

    Parameters
    ----------
    enabled:
        Master switch. Off is the fail-fast *configuration* of the same
        guarded scan runner, not another runner: every stage gets one
        attempt (:attr:`stage_attempts`), no degradation rung is allowed and
        no floor is forced (:attr:`ceiling`, :meth:`allows`,
        :attr:`floor`), the solve is the escalation ladder's first rung
        only, non-finite input is rejected rather than sanitized — and
        every error propagates as raised.
    max_degradation:
        Deepest fallback the pipeline may take. A failure needing a
        deeper level re-raises the underlying error instead — the
        operator asked for fail-fast beyond this point.
    min_degradation:
        Shallowest rung the pipeline may *start* at — a forced
        degradation floor. ``FULL_FEM`` (the default) changes nothing;
        anything deeper makes the scan skip the full-resolution solve
        (and, beyond ``COARSE_FEM``, the whole image-processing front
        half) and deliver that rung directly. This is the serving
        tier's load-shedding hook: under overload the gateway stamps a
        floor on the case instead of rejecting it, trading fidelity for
        bounded latency. Must not exceed ``max_degradation``.
    """

    enabled: bool = True
    max_degradation: DegradationLevel = DegradationLevel.RIGID_ONLY
    min_degradation: DegradationLevel = DegradationLevel.FULL_FEM

    def __post_init__(self) -> None:
        if not isinstance(self.max_degradation, DegradationLevel):
            self.max_degradation = parse_level(self.max_degradation)
        if not isinstance(self.min_degradation, DegradationLevel):
            self.min_degradation = parse_level(self.min_degradation)
        if self.min_degradation > self.max_degradation:
            raise ValidationError(
                f"min_degradation {self.min_degradation.label!r} exceeds "
                f"max_degradation {self.max_degradation.label!r}"
            )

    @property
    def stage_attempts(self) -> int:
        """Tries per guarded stage: one retry when enabled, none when not."""
        return 2 if self.enabled else 1

    @property
    def ceiling(self) -> DegradationLevel:
        """Deepest rung a scan may end on: none below full FEM when disabled."""
        return self.max_degradation if self.enabled else DegradationLevel.FULL_FEM

    @property
    def floor(self) -> DegradationLevel:
        """Shallowest rung a scan starts at (the shed floor, under the ceiling)."""
        return min(self.min_degradation, self.ceiling)

    def allows(self, level: DegradationLevel) -> bool:
        return level <= self.ceiling


def parse_level(value) -> DegradationLevel:
    """Coerce a CLI string / int / enum into a :class:`DegradationLevel`."""
    if isinstance(value, DegradationLevel):
        return value
    if isinstance(value, int):
        return DegradationLevel(value)
    name = str(value).strip().lower().replace("_", "-")
    if name in LEVEL_BY_NAME:
        return LEVEL_BY_NAME[name]
    raise ValidationError(
        f"unknown degradation level {value!r}; options: {sorted(LEVEL_BY_NAME)}"
    )
