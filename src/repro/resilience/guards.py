"""Stage guards and boundary validators for the intraoperative pipeline.

A :class:`StageGuard` runs one pipeline stage for up to ``attempts``
tries (:attr:`repro.resilience.ResiliencePolicy.stage_attempts`) with a
boundary validator on the stage's output — so a stage either returns a
*checked* value or raises a typed :class:`repro.util.ReproError` the
degradation layer can act on. The only deadline in the scan is the
escalation ladder's (:func:`repro.resilience.solve_with_escalation`).

The validators are the pipeline's data contracts made executable:
finite-field checks on images and displacement fields, a physical
magnitude gate on computed deformations (:data:`DISPLACEMENT_GATE_MM`),
and mesh-quality gates for the coarse-fallback mesher.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.mesh.quality import quality_report
from repro.mesh.tetra import TetrahedralMesh
from repro.obs.flight import get_flight_recorder
from repro.obs.trace import get_tracer
from repro.util import ReproError, ValidationError

#: Peak displacement (mm) past which a computed field is rejected: no
#: brain shifts this far, so the field is a diverged or corrupted solve.
DISPLACEMENT_GATE_MM = 200.0


@dataclass
class GuardReport:
    """What one guarded stage actually did (for notes and tests)."""

    stage: str
    attempts: int = 1
    seconds: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def retried(self) -> bool:
        return self.attempts > 1


@dataclass
class StageGuard:
    """Run one pipeline stage under retry and validation.

    Parameters
    ----------
    stage:
        Stage name (matches the timeline/budget stage names).
    attempts:
        Total tries (1 = no retry).
    validator:
        Called with the stage's return value; must raise a
        :class:`repro.util.ReproError` subtype to reject it. Validation
        failures are retried like execution failures.
    """

    stage: str
    attempts: int = 1
    validator: object | None = None

    def run(self, fn, *args, **kwargs):
        """Execute ``fn`` under the guard; returns its validated result.

        On exhausted retries the *last* error is re-raised (with
        ``stage`` attached when the error supports it). A
        ``resilience.retry`` trace event is emitted per failed attempt.
        """
        tracer = get_tracer()
        start = time.perf_counter()
        self.last_report = GuardReport(stage=self.stage)
        last_error: ReproError | None = None
        for attempt in range(1, self.attempts + 1):
            self.last_report.attempts = attempt
            try:
                result = fn(*args, **kwargs)
                if self.validator is not None:
                    self.validator(result)
                self.last_report.seconds = time.perf_counter() - start
                return result
            except ReproError as exc:
                last_error = exc
                self.last_report.errors.append(f"{type(exc).__name__}: {exc}")
                tracer.event(
                    "resilience.retry",
                    stage=self.stage,
                    attempt=attempt,
                    error=type(exc).__name__,
                )
                get_flight_recorder().note(
                    "stage.retry",
                    stage=self.stage,
                    attempt=attempt,
                    error=f"{type(exc).__name__}: {exc}",
                )
        self.last_report.seconds = time.perf_counter() - start
        if getattr(last_error, "stage", None) in (None, ""):
            try:
                last_error.stage = self.stage
            except AttributeError:
                pass
        raise last_error


# -- boundary validators ------------------------------------------------------


def check_finite_array(values: np.ndarray, name: str) -> np.ndarray:
    """Raise :class:`ValidationError` when ``values`` has NaN/Inf entries."""
    values = np.asarray(values)
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ValidationError(f"{name} contains {bad} non-finite entries")
    return values


def check_displacement_field(
    displacements: np.ndarray,
    gate_mm: float = DISPLACEMENT_GATE_MM,
    name: str = "displacement field",
) -> np.ndarray:
    """Finite-and-physical gate on a computed displacement field.

    A magnitude beyond ``gate_mm`` is not a big brain shift — it is a
    diverged solve or corrupted boundary data wearing one's clothes.
    """
    displacements = check_finite_array(displacements, name)
    flat = displacements.reshape(-1, displacements.shape[-1])
    peak = float(np.sqrt((flat * flat).sum(axis=1).max())) if flat.size else 0.0
    if peak > gate_mm:
        raise ValidationError(
            f"{name} peak magnitude {peak:.1f} mm exceeds the "
            f"{gate_mm:.0f} mm physical gate (diverged solve?)"
        )
    return displacements


def check_mesh_usable(
    mesh: TetrahedralMesh, max_aspect: float = 50.0, name: str = "mesh"
) -> TetrahedralMesh:
    """Reject meshes whose worst element would poison the FEM solve."""
    report = quality_report(mesh)
    worst = float(report.get("worst_aspect", 0.0))
    if not np.isfinite(worst) or worst > max_aspect:
        raise ValidationError(
            f"{name} contains degenerate elements "
            f"(worst aspect ratio {worst:.1f} > {max_aspect:.0f})"
        )
    return mesh
