"""Concurrent multi-patient serving of surgical sessions.

The paper's pipeline serves one patient under operating-room latency;
this package re-architects it as a *service*: a bounded admission queue
with budget-verdict backpressure and a tiered load-shedding ladder
(:mod:`repro.serving.admission`), FIFO / earliest-deadline-first
scheduling with preop-model affinity (:mod:`repro.serving.scheduler`),
a ``multiprocessing`` worker pool whose workers host resumable sessions
and share prepared patient models via a checksum-keyed cache
(:mod:`repro.serving.pool`), and the one single-threaded control loop
tying them together (:mod:`repro.serving.gateway`): a gateway owning
admission, routing over a consistent-hash ring of shards
(:mod:`repro.serving.shard`), shard failover and chaos-fault injection,
of which the single-pool server (:mod:`repro.serving.server`) is the
one-shard configuration. Worker and shard deaths re-admit
durable cases through their persistence journal; graceful drain
checkpoints in-flight sessions and surfaces stragglers as terminal
evictions. The network layer puts the gateway behind a real socket:
:mod:`repro.serving.transport` (checksummed frame protocol,
content-addressed preop upload with delta-streamed scans, health
probes, wire chaos, SIGTERM drain) and :mod:`repro.serving.netclient`
(idempotent retrying client with circuit breaking). ``repro serve``,
``repro submit`` and ``repro bench-throughput`` drive it from the
command line; :mod:`repro.serving.soak` holds the serving drivers (the
throughput comparison and the chaos soaks) and their one case-load
builder.
"""

from repro.serving.admission import (
    AdmissionQueue,
    QueuedCase,
    ServiceEstimator,
    SheddingDecision,
    SheddingLadder,
)
from repro.serving.gateway import ShardGateway
from repro.serving.netclient import CircuitBreaker, NetClient, NetError
from repro.serving.pool import SessionWorkerPool, WorkerHandle
from repro.serving.protocol import (
    CASE_STATUSES,
    SERVED_STATUSES,
    CaseRequest,
    CaseResult,
    ScanOutcome,
    outcome_from_result,
)
from repro.serving.scheduler import POLICIES, Scheduler
from repro.serving.server import SessionServer
from repro.serving.shard import ConsistentHashRing, Shard
from repro.serving.soak import ThroughputReport, run_throughput_benchmark
from repro.serving.transport import (
    FrameError,
    NetworkFrontEnd,
    decode_frame,
    decode_volume,
    encode_frame,
    encode_volume,
)

__all__ = [
    "AdmissionQueue",
    "CASE_STATUSES",
    "CaseRequest",
    "CaseResult",
    "CircuitBreaker",
    "ConsistentHashRing",
    "FrameError",
    "NetClient",
    "NetError",
    "NetworkFrontEnd",
    "POLICIES",
    "QueuedCase",
    "SERVED_STATUSES",
    "ScanOutcome",
    "Scheduler",
    "ServiceEstimator",
    "SessionServer",
    "SessionWorkerPool",
    "Shard",
    "ShardGateway",
    "SheddingDecision",
    "SheddingLadder",
    "ThroughputReport",
    "WorkerHandle",
    "decode_frame",
    "decode_volume",
    "encode_frame",
    "encode_volume",
    "outcome_from_result",
    "run_throughput_benchmark",
]
