"""Bounded admission queue with backpressure and deadline control.

Admission reuses the :mod:`repro.obs.budget` vocabulary: every decision
is expressed as a :class:`repro.obs.ScanVerdict` whose checks are the
estimated *queue wait* and *case service* components, judged against the
case's deadline. A case is admitted when the queue has capacity and its
estimated completion fits the deadline; otherwise the verdict's ``label``
(``ok`` / ``OVER(...)``) travels back to the caller as the rejection
reason — the same compact language an intraoperative scan's budget
verdict uses.

Service estimates start at zero (admit-everything) and calibrate online
from observed preoperative-build and per-scan durations via an
exponentially weighted moving average, so backpressure tightens as the
server learns the actual workload.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.obs.budget import ScanVerdict, StageCheck
from repro.resilience.policy import DegradationLevel
from repro.serving.protocol import CaseRequest
from repro.util import ValidationError


@dataclass
class ServiceEstimator:
    """Online EWMA estimates of preop-build and per-scan seconds."""

    alpha: float = 0.4
    preop_seconds: float = 0.0
    scan_seconds: float = 0.0
    _preop_n: int = field(default=0, repr=False)
    _scan_n: int = field(default=0, repr=False)

    def observe_preop(self, seconds: float) -> None:
        self.preop_seconds = self._blend(self.preop_seconds, seconds, self._preop_n)
        self._preop_n += 1

    def observe_scan(self, seconds: float) -> None:
        self.scan_seconds = self._blend(self.scan_seconds, seconds, self._scan_n)
        self._scan_n += 1

    def _blend(self, current: float, seconds: float, n: int) -> float:
        if n == 0:
            return float(seconds)
        return (1.0 - self.alpha) * current + self.alpha * float(seconds)

    def case_seconds(self, n_scans: int, preop_cached: bool) -> float:
        """Expected service time of a case (0.0 until calibrated)."""
        preop = 0.0 if preop_cached else self.preop_seconds
        return preop + n_scans * self.scan_seconds


@dataclass
class SheddingDecision:
    """Outcome of one pass up the load-shedding ladder."""

    pressure: float
    level: DegradationLevel | None = None  #: forced floor, ``None`` = full fidelity
    reject: bool = False

    @property
    def label(self) -> str:
        if self.reject:
            return "reject"
        return "none" if self.level is None else self.level.label


@dataclass
class SheddingLadder:
    """Tiered overload response: degrade fidelity before dropping work.

    The ladder converts an instantaneous **pressure** reading into the
    mildest response that relieves it, in strictly escalating order:

    ==================  =====================================================
    pressure            response
    ==================  =====================================================
    ``< coarse_at``     serve at full fidelity
    ``>= coarse_at``    force the coarse-FEM rung (cheaper solve, full BCs)
    ``>= previous_at``  force previous-field (skip the image front half)
    ``>= rigid_at``     force rigid-only (near-zero marginal cost)
    ``>= reject_at``    reject at admission — the last resort, by
                        construction reachable only after every shedding
                        rung is already active
    ==================  =====================================================

    Pressure is the max of two normalized signals: queue fill (exact,
    instantaneous) and estimated backlog seconds relative to the fleet's
    service horizon (predictive, EWMA-calibrated). Either one saturating
    walks the ladder.
    """

    coarse_at: float = 0.55
    previous_at: float = 0.75
    rigid_at: float = 0.90
    reject_at: float = 1.10
    horizon_s: float = 30.0

    def __post_init__(self) -> None:
        steps = (self.coarse_at, self.previous_at, self.rigid_at, self.reject_at)
        # An infinite threshold switches its rung (and so every later
        # one) off; all four infinite is the ladder that never sheds.
        if not all(s > 0 for s in steps) or not all(
            a < b or b == math.inf for a, b in zip(steps, steps[1:])
        ):
            raise ValidationError(
                "shedding thresholds must be positive and strictly increasing "
                f"(coarse < previous < rigid < reject), got {steps}"
            )
        if self.horizon_s <= 0:
            raise ValidationError(f"horizon_s must be > 0, got {self.horizon_s}")

    def pressure(
        self, queue_fill: float, backlog_seconds: float, n_workers: int
    ) -> float:
        """Overload pressure in [0, inf): 1.0 ~ saturated."""
        capacity_s = max(1, n_workers) * self.horizon_s
        return max(float(queue_fill), float(backlog_seconds) / capacity_s)

    def decide(self, pressure: float) -> SheddingDecision:
        """The mildest response to ``pressure`` (see class docs)."""
        if pressure >= self.reject_at:
            return SheddingDecision(pressure=pressure, reject=True)
        if pressure >= self.rigid_at:
            return SheddingDecision(
                pressure=pressure, level=DegradationLevel.RIGID_ONLY
            )
        if pressure >= self.previous_at:
            return SheddingDecision(
                pressure=pressure, level=DegradationLevel.PREVIOUS_FIELD
            )
        if pressure >= self.coarse_at:
            return SheddingDecision(
                pressure=pressure, level=DegradationLevel.COARSE_FEM
            )
        return SheddingDecision(pressure=pressure)


@dataclass
class QueuedCase:
    """A case waiting for a worker slot."""

    request: CaseRequest
    admitted_monotonic: float

    @property
    def deadline_monotonic(self) -> float | None:
        if self.request.deadline_s is None:
            return None
        return self.admitted_monotonic + self.request.deadline_s

    def waited(self, now: float | None = None) -> float:
        return (time.monotonic() if now is None else now) - self.admitted_monotonic

    def expired(self, now: float | None = None) -> bool:
        deadline = self.deadline_monotonic
        if deadline is None:
            return False
        return (time.monotonic() if now is None else now) > deadline


class AdmissionQueue:
    """Bounded FIFO of queued cases with verdict-based admission.

    ``capacity`` bounds the number of *queued* (not yet dispatched)
    cases — the server's backpressure boundary. :meth:`admit` renders
    the decision as a :class:`repro.obs.ScanVerdict`; :meth:`evict_expired`
    implements the queue half of deadline enforcement.
    """

    def __init__(self, capacity: int, estimator: ServiceEstimator | None = None):
        if capacity < 1:
            raise ValidationError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.estimator = estimator if estimator is not None else ServiceEstimator()
        self._items: list[QueuedCase] = []

    # -- state ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def items(self) -> list[QueuedCase]:
        """The queued cases, admission order (do not mutate)."""
        return list(self._items)

    # -- admission -----------------------------------------------------------

    def admission_verdict(
        self,
        request: CaseRequest,
        backlog_seconds: float = 0.0,
        preop_cached: bool = False,
        waited_s: float = 0.0,
    ) -> ScanVerdict:
        """Judge a candidate case against its deadline, scan-verdict style.

        ``backlog_seconds`` is the estimated work queued/running ahead of
        the case; the verdict's checks break the estimate into its queue
        wait and service components. ``waited_s`` is deadline budget the
        case already burned *before* reaching admission — network transit
        and transport queuing, derived from the client-stamped enqueue
        time — charged as its own check so a case that spent most of its
        deadline on the wire is rejected instead of admitted with no hope
        of finishing. A case without a deadline is judged against an
        infinite budget — always ``ok``.
        """
        service = self.estimator.case_seconds(request.n_scans, preop_cached)
        waited = max(0.0, float(waited_s))
        deadline = (
            float("inf") if request.deadline_s is None else float(request.deadline_s)
        )
        checks = [
            StageCheck("queue wait", float(backlog_seconds), None),
            StageCheck("case service", float(service), None),
        ]
        if waited > 0.0:
            checks.insert(0, StageCheck("network wait", waited, None))
        verdict = ScanVerdict(
            scan_index=len(self._items),
            total_seconds=waited + backlog_seconds + service,
            scan_budget=deadline,
            checks=checks,
        )
        if verdict.scan_over:
            verdict.warnings.append(
                f"case {request.case_id!r}: estimated completion "
                f"{verdict.total_seconds:.1f} s exceeds deadline {deadline:.1f} s"
            )
        return verdict

    def admit(
        self,
        request: CaseRequest,
        backlog_seconds: float = 0.0,
        preop_cached: bool = False,
        waited_s: float = 0.0,
    ) -> tuple[bool, ScanVerdict | None, str]:
        """Try to enqueue; returns ``(admitted, verdict, detail)``.

        A full queue rejects immediately with ``verdict=None`` (hard
        backpressure — no estimate involved); otherwise the budget-style
        verdict decides, and an admitted case is appended FIFO with its
        deadline clock backdated by ``waited_s`` — the pre-admission
        delay (network transit, transport queuing) already spent against
        ``deadline_s``.
        """
        if self.full:
            return False, None, f"queue full (capacity {self.capacity})"
        verdict = self.admission_verdict(request, backlog_seconds, preop_cached, waited_s)
        if not verdict.within_budget:
            return False, verdict, verdict.warnings[-1] if verdict.warnings else (
                f"admission verdict {verdict.label}"
            )
        enqueued = time.monotonic() - max(0.0, float(waited_s))
        self._items.append(QueuedCase(request, enqueued))
        return True, verdict, "admitted"

    # -- dispatch / eviction -------------------------------------------------

    def pop(self, index: int = 0) -> QueuedCase:
        """Remove and return the queued case at ``index``."""
        if not self._items:
            raise ValidationError("admission queue is empty")
        return self._items.pop(index)

    def requeue_front(self, request: CaseRequest) -> QueuedCase:
        """Put a re-admitted case at the head of the queue.

        Used after a worker death: the case already earned its admission
        once, so it bypasses the verdict (and the capacity bound, which
        only shields *new* work) and restarts its deadline clock.
        """
        queued = QueuedCase(request, time.monotonic())
        self._items.insert(0, queued)
        return queued

    def clear(self) -> list[QueuedCase]:
        """Remove and return every queued case (drain/shutdown path)."""
        items, self._items = self._items, []
        return items

    def evict_expired(self, now: float | None = None) -> list[QueuedCase]:
        """Remove and return every queued case past its deadline."""
        now = time.monotonic() if now is None else now
        expired = [q for q in self._items if q.expired(now)]
        if expired:
            self._items = [q for q in self._items if not q.expired(now)]
        return expired
