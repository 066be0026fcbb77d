"""The serving wire protocol: case requests, per-scan records, results.

A *case* is one patient's surgical session submitted to the
:class:`repro.serving.SessionServer`: the preoperative acquisition (MRI
+ segmentation), the ordered intraoperative scans to register, an
optional pipeline configuration, and serving attributes (deadline,
checkpoint directory). Everything in a :class:`CaseRequest` is plain
data — numpy volumes and config dataclasses — so requests cross the
process boundary to the worker pool by pickling.

Results flow back as :class:`CaseResult`: a terminal status, the
:class:`repro.persist.ScanRecord` of every processed scan — the record
the persistence journal commits, with the BLAKE2b checksums of the
displacement fields, so serving results are directly comparable against
serial sessions and against checkpoints — and the queue/service timings
the server's metrics aggregate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import PipelineConfig
from repro.imaging.volume import ImageVolume
from repro.persist.checkpoint import ScanRecord, config_to_manifest
from repro.resilience.policy import DegradationLevel
from repro.util import ValidationError
from repro.util.atomicio import checksum_array, checksum_bytes

#: Terminal case statuses.
STATUS_COMPLETED = "completed"  #: every scan processed at full fidelity
STATUS_DEGRADED = "degraded"  #: every scan processed, at least one on a fallback rung
STATUS_REJECTED = "rejected"  #: refused at admission (backpressure/deadline)
STATUS_EVICTED = "evicted"  #: deadline expired before/while serving
STATUS_DRAINED = "drained"  #: checkpointed mid-case by a graceful drain
STATUS_FAILED = "failed"  #: the case raised after exhausting re-admissions

CASE_STATUSES = (
    STATUS_COMPLETED,
    STATUS_DEGRADED,
    STATUS_REJECTED,
    STATUS_EVICTED,
    STATUS_DRAINED,
    STATUS_FAILED,
)

#: Statuses under which the case delivered a usable compensation for
#: every scan (the clinical success criterion: full-FEM or a declared
#: fallback, never silence).
SERVED_STATUSES = (STATUS_COMPLETED, STATUS_DEGRADED)


def served_status(labels) -> tuple[str, list[str]]:
    """A served case's status, and the scan labels that degrade it.

    ``labels`` are the scans' degradation labels (``None`` for a scan
    that carries none). ``"full-fem"`` is a full-quality result, also
    after solver escalation; only a label past it degrades the case. The
    worker and the journal replay of a durable case both decide by this.
    """
    full = DegradationLevel.FULL_FEM.label
    degraded = sorted({label for label in labels if label not in (None, full)})
    return (STATUS_DEGRADED if degraded else STATUS_COMPLETED), degraded


def retry_backoff(base: float, cap: float, attempt: int, token) -> float:
    """The serving tier's one retry delay: capped exponential, jittered.

    Attempt ``k`` (>= 1) waits ``min(cap, base * 2**(k-1))`` scaled by
    ``1 + 0.25 * j``, where ``j`` in [0, 1) is the BLAKE2b digest of
    ``f"{token}/{attempt}"``: a replayed drill retries at the same
    instants, and retries of different tokens do not move in lockstep. A
    zero ``base`` waits 0. The gateway's re-admission, the client's
    connect/submit/wait retries and the pool's respawn all wait this.
    """
    digest = hashlib.blake2b(f"{token}/{attempt}".encode(), digest_size=4).digest()
    jitter = int.from_bytes(digest, "big") / 2**32
    return min(cap, base * 2.0 ** (attempt - 1)) * (1.0 + 0.25 * jitter)


@dataclass
class CaseRequest:
    """One surgical case submitted to the serving layer.

    Attributes
    ----------
    case_id:
        Unique identifier within the server (duplicate submissions are
        rejected).
    preop_mri / preop_labels:
        The preoperative acquisition and segmentation — the patient
        identity. Cases sharing identical preoperative data (and config)
        share one prepared model inside a worker via the checksum-keyed
        preop cache.
    scans:
        Ordered intraoperative acquisitions to register.
    config:
        Pipeline configuration; ``None`` uses the server's default.
    deadline_s:
        Wall-clock budget (seconds) from admission to completion;
        ``None`` means no deadline. Expired queued cases are evicted;
        a running case past its deadline is terminated and evicted.
    checkpoint_dir:
        Makes the case durable: the worker journals every scan through
        :class:`repro.persist.SessionStore`. If the directory already
        holds a checkpoint, the worker *resumes* it and processes only
        the remaining scans — which is also how a case interrupted by a
        worker death is re-admitted.
    trace_context:
        Distributed-trace identity stamped by the server at dispatch
        (:class:`repro.obs.telemetry.TraceContext`). When present the
        worker records spans and metrics for this case and ships them
        back in :attr:`CaseResult.telemetry`; ``None`` serves the case
        dark (no per-case instrumentation).
    flight_dir:
        Directory where the worker persists its flight-recorder ring
        (``worker-<id>.json``, atomically, after every scan and on
        faults) so even a killed worker leaves a post-mortem on disk.
    shed_level:
        Load-shedding floor stamped by the gateway under overload: the
        integer value of a :class:`repro.resilience.DegradationLevel`
        the worker must start at (clamped to the policy's
        ``max_degradation``). Applied to the worker's private config
        copy only — the submitter's config object is never mutated.
        ``None`` serves at full fidelity.
    client_enqueue_unix:
        Wall-clock (``time.time()``) instant the *client* committed the
        case to the wire. Carried so the gateway can charge network and
        transport-queue delay against ``deadline_s``: admission backdates
        the case's deadline clock by ``now - client_enqueue_unix`` instead
        of silently restarting it at the server. ``None`` (in-process
        submission) starts the clock at admission, as before.
    idempotency_key:
        Client-chosen key the network front-end dedups resubmissions by
        (retries after a torn reply, duplicate deliveries). Defaults to
        ``case_id`` when unset. Two live submissions with the same key
        are collapsed into one execution; a terminal result is replayed
        verbatim to late duplicates.
    """

    case_id: str
    preop_mri: ImageVolume
    preop_labels: ImageVolume
    scans: list[ImageVolume]
    config: PipelineConfig | None = None
    deadline_s: float | None = None
    checkpoint_dir: str | None = None
    trace_context: object | None = None
    flight_dir: str | None = None
    shed_level: int | None = None
    client_enqueue_unix: float | None = None
    idempotency_key: str | None = None

    def __post_init__(self) -> None:
        if not self.case_id:
            raise ValidationError("case_id must be a non-empty string")
        if not self.scans:
            raise ValidationError(f"case {self.case_id!r}: scans must not be empty")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValidationError(
                f"case {self.case_id!r}: deadline_s must be > 0, got {self.deadline_s}"
            )

    @property
    def n_scans(self) -> int:
        return len(self.scans)

    def preop_key(self) -> str:
        """Checksum key of the patient model this case needs.

        BLAKE2b over the preoperative volumes (data + grid) and the
        scan-invariant pipeline configuration: two cases with equal keys
        can share one prepared :class:`repro.core.PreoperativeModel`
        as it is. Memoized — the
        volumes are treated as immutable once submitted.
        """
        cached = getattr(self, "_preop_key", None)
        if cached is not None:
            return cached
        config = self.config if self.config is not None else PipelineConfig()
        parts = []
        for volume in (self.preop_mri, self.preop_labels):
            parts.append(checksum_array(np.asarray(volume.data)))
            # Normalize to builtin floats: numpy scalars repr differently
            # (``np.float64(1.0)`` vs ``1.0``), which would make a wire
            # round-trip of bit-identical volumes hash to a different key.
            parts.append(repr(tuple(float(s) for s in volume.spacing)))
            parts.append(repr(tuple(float(o) for o in volume.origin)))
        parts.append(repr(sorted(config_to_manifest(config).items())))
        self._preop_key = checksum_bytes("|".join(parts).encode())
        return self._preop_key


@dataclass
class CaseResult:
    """Terminal record of one case's trip through the server.

    Attributes
    ----------
    status:
        One of :data:`CASE_STATUSES`.
    detail:
        Human-readable reason (admission verdict label, eviction cause,
        worker error, drain checkpoint location).
    worker:
        Id of the worker that (last) served the case; ``None`` when the
        case never reached a worker.
    scans:
        The :class:`repro.persist.ScanRecord` of each processed scan, in
        order; ``restored`` on a scan recovered from a checkpoint rather
        than recomputed by the worker.
    queue_seconds / service_seconds:
        Time spent queued (admission -> dispatch) and being served.
    attempts:
        Dispatch count (> 1 after a worker-death re-admission).
    preop_cache_hit:
        The worker served the case from its checksum-keyed preoperative
        model cache (no rebuild of assembly/reduction/preconditioner
        state).
    checkpoint:
        Checkpoint directory holding the case's durable state, when any
        (the request's, or the drain spool for drained cases).
    telemetry:
        The worker's :class:`repro.obs.telemetry.TelemetryFrame` for
        this case — finished spans and a metrics snapshot — on its way
        from the worker to the gateway, which grafts it into its own
        trace and then drops it: a result the gateway recorded (and a
        client received) carries ``None``.
    flight_dump:
        Name of the worker's persisted flight-recorder ring for this
        case relative to the request's ``flight_dir`` (e.g.
        ``worker-0.json``), when the request carried one; a reader joins
        it with the ``flight_dir`` it passed.
    """

    case_id: str
    status: str
    detail: str = ""
    worker: int | None = None
    scans: list[ScanRecord] = field(default_factory=list)
    queue_seconds: float = 0.0
    service_seconds: float = 0.0
    attempts: int = 0
    preop_cache_hit: bool = False
    preop_seconds: float = 0.0
    checkpoint: str | None = None
    error_traceback: str | None = None
    telemetry: object | None = None
    flight_dump: str | None = None

    def __post_init__(self) -> None:
        if self.status not in CASE_STATUSES:
            raise ValidationError(
                f"case {self.case_id!r}: unknown status {self.status!r}"
            )

    @property
    def ok(self) -> bool:
        """Every scan was served (full fidelity or a declared fallback)."""
        return self.status in SERVED_STATUSES

    @property
    def n_scans(self) -> int:
        return len(self.scans)

    def as_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "status": self.status,
            "detail": self.detail,
            "worker": self.worker,
            "scans": [s.as_dict() for s in self.scans],
            "queue_seconds": self.queue_seconds,
            "service_seconds": self.service_seconds,
            "attempts": self.attempts,
            "preop_cache_hit": self.preop_cache_hit,
            "preop_seconds": self.preop_seconds,
            "checkpoint": self.checkpoint,
        }
