"""Serving drivers: the throughput comparison and the chaos soaks.

Every driver draws its cases from :func:`make_soak_requests`, the one
phantom case-load builder (``repro serve`` and ``repro submit`` use it
too): ``n_cases`` cases over ``n_patients`` patients, scan ``k`` of
case ``c`` a growing brain shift with noise seed ``seed + 100 + c*S + k``.
:func:`run_wave` is the one submit-and-run step of the in-process drivers.

:func:`run_throughput_benchmark` is the serving layer's throughput
claim: N concurrent cases of one patient served by a
:class:`repro.serving.SessionServer` finish faster than N serial
back-to-back :class:`repro.core.SurgicalSession` runs, because (a)
workers solve in separate processes (GIL-free, scales with cores) and
(b) the checksum-keyed preop cache prepares the patient model **once**
where serial sessions rebuild it per case — meshing, assembly,
Dirichlet elimination and preconditioner factorization are the dominant
per-case fixed cost, so the win holds even on one core. Correctness is
part of it: every case's displacement-field checksums from the pool run
must equal the serial run's **bit-exactly** (every solve starts from
zero, so a cached model's reuse is numerically invisible).
``benchmarks/test_throughput.py`` persists it as ``BENCH_throughput.json``;
``repro bench-throughput`` runs it from the command line.

:func:`run_soak` drives a :class:`repro.serving.ShardGateway` through a
sustained multi-wave case load while a
:class:`repro.resilience.ServingFaultPlan` injects shard kills, worker
hangs, shard slowdowns and dropped results, then audits the wreckage.
The contract it checks is the serving tier's headline robustness claim:

* **No lost durable case** — every admitted case reaches exactly one
  terminal status (completed / degraded / failed / evicted / drained);
  journaled cases interrupted by a shard death replay their committed
  scans bit-exact on a survivor.
* **Shed before reject** — overload walks the
  :class:`repro.serving.SheddingLadder` (coarse-FEM -> previous-field ->
  rigid-only) before any case is refused admission.
* **Latency accounting survives chaos** — the SLO view's per-stage
  percentiles (:func:`repro.obs.slo_summary` over the gateway's merged
  metrics, vs. the paper's stage budgets) cover every scan served,
  including post-failover replays.

It returns a :class:`SoakReport`; ``benchmarks/test_soak.py`` persists
it as ``BENCH_soak.json`` and asserts the contract, and
``repro bench-soak`` runs it from the command line.

:func:`run_net_soak` runs the same contract through the network path:
a :class:`repro.serving.transport.NetworkFrontEnd` on a real socket, a
retrying :class:`repro.serving.NetClient`, and *wire-level* chaos on
top of the gateway faults (mid-frame resets, truncated frames, delayed
ACKs, duplicate deliveries, a partition-then-heal). Its extra audit:
duplicate deliveries must be deduplicated — no idempotency key ever
starts a second execution (``double_solved`` stays empty) — and the
retry / breaker / byte counters must land in the merged metrics.
``benchmarks/test_netsoak.py`` persists it as ``BENCH_netsoak.json``;
``repro bench-netsoak`` runs it from the command line.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import PipelineConfig
from repro.imaging.phantom import _phantom_case, make_neurosurgery_case
from repro.obs.budget import slo_summary
from repro.resilience.faults import ServingFaultPlan
from repro.serving.admission import SheddingLadder
from repro.serving.gateway import ShardGateway
from repro.serving.protocol import SERVED_STATUSES, CaseRequest, outcome_from_result
from repro.serving.server import SessionServer
from repro.util import ValidationError, format_table

#: Default injected-fault schedule, keyed by gateway dispatch ordinal:
#: a hang and a slowdown early (mid first wave), a dropped reply, then a
#: full shard kill once the fleet is warm — the soak must absorb all
#: four without losing a case.
DEFAULT_FAULTS = "1:hang-worker=0,2:slow-shard=1@0.1,3:drop-result=1,4:kill-shard=0"

#: Default wire-chaos schedule for the network soak, keyed by *submit*
#: ordinal at the front-end: a duplicate delivery early (exercises the
#: dedup ladder), a reset mid-result-frame and a truncated frame (the
#: client must retry and be answered from the terminal cache), a
#: delayed ACK, then a partition that heals (the client reconnects and
#: resubmits everything unresolved).
DEFAULT_WIRE_FAULTS = (
    "1:dup-deliver,2:reset-mid-frame,3:truncate-frame,4:delay-ack@0.1,"
    "5:partition@0.6"
)

#: Gateway-side chaos paired with the wire schedule: keep it to a hang
#: and a dropped result so the network path, not shard failover, is the
#: star of the audit.
DEFAULT_NET_GATEWAY_FAULTS = "1:hang-worker=0,2:drop-result=0"


@dataclass
class ThroughputReport:
    """Serial-vs-pool comparison for one benchmark run."""

    n_cases: int
    n_workers: int
    scans_per_case: int
    serial_seconds: float
    pool_seconds: float
    bit_identical: bool
    preop_cache_hits: int
    shape: tuple[int, int, int]
    mesh_cell_mm: float
    serial_checksums: dict[str, list[str]] = field(default_factory=dict, repr=False)
    pool_checksums: dict[str, list[str]] = field(default_factory=dict, repr=False)

    @property
    def total_scans(self) -> int:
        return self.n_cases * self.scans_per_case

    @property
    def serial_scans_per_s(self) -> float:
        return self.total_scans / self.serial_seconds

    @property
    def pool_scans_per_s(self) -> float:
        return self.total_scans / self.pool_seconds

    @property
    def speedup(self) -> float:
        """Aggregate-throughput ratio (pool over serial)."""
        return self.serial_seconds / self.pool_seconds

    def as_dict(self) -> dict:
        return {
            "n_cases": self.n_cases,
            "n_workers": self.n_workers,
            "scans_per_case": self.scans_per_case,
            "total_scans": self.total_scans,
            "shape": list(self.shape),
            "mesh_cell_mm": self.mesh_cell_mm,
            "serial_seconds": self.serial_seconds,
            "pool_seconds": self.pool_seconds,
            "serial_scans_per_s": self.serial_scans_per_s,
            "pool_scans_per_s": self.pool_scans_per_s,
            "speedup": self.speedup,
            "bit_identical": self.bit_identical,
            "preop_cache_hits": self.preop_cache_hits,
        }

    def table(self) -> str:
        rows = [
            ["serial sessions", f"{self.serial_seconds:.2f}",
             f"{self.serial_scans_per_s:.3f}", "1.00"],
            [f"{self.n_workers}-worker pool", f"{self.pool_seconds:.2f}",
             f"{self.pool_scans_per_s:.3f}", f"{self.speedup:.2f}"],
        ]
        table = format_table(
            ["configuration", "wall (s)", "scans/s", "speedup"],
            rows,
            title=(
                f"Serving throughput: {self.n_cases} cases x "
                f"{self.scans_per_case} scan(s), same patient"
            ),
        )
        table += (
            f"\n  bit-identical displacement fields: {self.bit_identical}"
            f" | preop cache hits: {self.preop_cache_hits}/{self.n_cases - 1} possible"
        )
        return table


@dataclass
class SoakReport:
    """Outcome audit of one chaos-soak run (JSON-serializable)."""

    n_cases: int
    n_shards: int
    workers_per_shard: int
    scans_per_case: int
    shape: tuple[int, int, int]
    mesh_cell_mm: float
    waves: int
    elapsed_seconds: float
    scans_total: int
    faults_injected: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    shed_levels: dict = field(default_factory=dict)
    statuses: dict = field(default_factory=dict)
    durable_cases: int = 0
    lost_cases: list[str] = field(default_factory=list)
    unterminated_cases: list[str] = field(default_factory=list)
    replay_bit_identical: bool | None = None
    latency: dict = field(default_factory=dict)
    #: Summed peak resident set (``VmHWM``) of the workers alive when the
    #: load ended, next to ``counters["serving.preop_evictions"]``: did
    #: memory grow with the patients served, or did the model cache turn
    #: over? (A killed shard's workers took their peaks with them.)
    workers_peak_rss_mb: float = 0.0
    #: Network-path audit (:func:`run_net_soak` only): server/client
    #: ``net.*`` counters, duplicate-dedup accounting, breaker stats,
    #: and ``double_solved`` — idempotency keys that started more than
    #: one execution (must be empty).
    net: dict = field(default_factory=dict)

    @property
    def throughput_scans_per_s(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.scans_total / self.elapsed_seconds

    @property
    def served(self) -> int:
        return sum(self.statuses.get(s, 0) for s in SERVED_STATUSES)

    @property
    def shed_before_reject(self) -> bool:
        """Did every admission-time rejection happen with shedding active?

        Vacuously true when nothing was rejected; otherwise at least one
        case must have been served on a shed rung — rejection without any
        shedding means the ladder was bypassed.
        """
        if self.counters.get("serving.rejected", 0) == 0:
            return True
        return sum(self.shed_levels.values()) > 0

    def as_dict(self) -> dict:
        return {
            "n_cases": self.n_cases,
            "n_shards": self.n_shards,
            "workers_per_shard": self.workers_per_shard,
            "scans_per_case": self.scans_per_case,
            "shape": list(self.shape),
            "mesh_cell_mm": self.mesh_cell_mm,
            "waves": self.waves,
            "elapsed_seconds": self.elapsed_seconds,
            "scans_total": self.scans_total,
            "throughput_scans_per_s": self.throughput_scans_per_s,
            "faults_injected": list(self.faults_injected),
            "counters": dict(self.counters),
            "shed_levels": dict(self.shed_levels),
            "statuses": dict(self.statuses),
            "served": self.served,
            "durable_cases": self.durable_cases,
            "lost_cases": list(self.lost_cases),
            "unterminated_cases": list(self.unterminated_cases),
            "shed_before_reject": self.shed_before_reject,
            "replay_bit_identical": self.replay_bit_identical,
            "latency": self.latency,
            "workers_peak_rss_mb": self.workers_peak_rss_mb,
            "net": dict(self.net),
        }

    def table(self) -> str:
        rows = [
            ["cases admitted", int(self.counters.get("serving.admitted", 0))],
            ["served (completed+degraded)", self.served],
            ["rejected", int(self.counters.get("serving.rejected", 0))],
            ["shed (degraded admissions)", int(self.counters.get("serving.shed", 0))],
            ["failed", self.statuses.get("failed", 0)],
            ["evicted", self.statuses.get("evicted", 0)],
            ["drained", self.statuses.get("drained", 0)],
            ["shard deaths", int(self.counters.get("serving.shard_deaths", 0))],
            ["worker deaths", int(self.counters.get("serving.worker_deaths", 0))],
            ["hangs detected", int(self.counters.get("serving.hangs", 0))],
            ["results dropped", int(self.counters.get("serving.dropped_results", 0))],
            ["failovers", int(self.counters.get("serving.failover", 0))],
            ["re-admissions", int(self.counters.get("serving.readmitted", 0))],
            ["respawns", int(self.counters.get("serving.respawn", 0))],
            [
                "patient models evicted",
                int(self.counters.get("serving.preop_evictions", 0)),
            ],
            ["durable cases", self.durable_cases],
            ["lost durable cases", len(self.lost_cases)],
        ]
        table = format_table(
            ["outcome", "count"],
            [[k, str(v)] for k, v in rows],
            title=(
                f"Chaos soak: {self.n_cases} cases, {self.n_shards} shards x "
                f"{self.workers_per_shard} workers, {len(self.faults_injected)} faults"
            ),
        )
        table += (
            f"\n  elapsed: {self.elapsed_seconds:.1f} s"
            f" | scans: {self.scans_total}"
            f" | throughput: {self.throughput_scans_per_s:.3f} scans/s"
            f" | shed-before-reject: {self.shed_before_reject}"
            f" | workers' peak RSS: {self.workers_peak_rss_mb:.0f} MB"
        )
        if self.replay_bit_identical is not None:
            table += f" | replay bit-identical: {self.replay_bit_identical}"
        if self.net:
            table += (
                f"\n  net: {int(self.net.get('submits', 0))} submits"
                f" | {int(self.net.get('duplicates', 0))} duplicates deduped"
                f" ({int(self.net.get('journal_dedup', 0))} via journal)"
                f" | {int(self.net.get('client_retries', 0))} client retries"
                f" | {int(self.net.get('client_reconnects', 0))} reconnects"
                f" | {int(self.net.get('breaker_trips', 0))} breaker trips"
                f" | double-solved: {len(self.net.get('double_solved', []))}"
            )
        return table


def make_soak_requests(
    n_cases: int,
    scans_per_case: int,
    shape: tuple[int, int, int],
    mesh_cell_mm: float,
    n_patients: int,
    seed: int,
    durable_every: int = 1,
    checkpoint_root: str | None = None,
    shift_mm: float = 5.0,
    deadline_s: float | None = None,
) -> list[CaseRequest]:
    """A phantom case load: ``n_patients`` distinct patients, cases round-robin.

    Patient ``p`` is the phantom of seed ``seed + p``; scan ``k`` of case
    ``c`` is ``_phantom_case(shape, shift_mm, seed + 100 + c*S, k, S)``,
    a shift growing to ``shift_mm`` with a noise seed of its own. Same-
    patient cases exercise the preop-model cache, distinct patients the
    ring (their preop keys spread across shards). When a
    ``checkpoint_root`` is given, every ``durable_every``-th case is
    journaled under it so shard kills have durable state to replay.
    """
    patients = [
        make_neurosurgery_case(shape=tuple(shape), shift_mm=shift_mm, seed=seed + p)
        for p in range(min(max(1, n_patients), n_cases))
    ]
    config = PipelineConfig(mesh_cell_mm=mesh_cell_mm)
    requests = []
    for case in range(n_cases):
        patient = patients[case % len(patients)]
        case_seed = seed + 100 + case * scans_per_case
        scans = [
            _phantom_case(shape, shift_mm, case_seed, scan, scans_per_case).intraop_mri
            for scan in range(scans_per_case)
        ]
        case_id = f"case-{case:03d}"
        checkpoint = None
        if checkpoint_root is not None and durable_every > 0 and case % durable_every == 0:
            checkpoint = str(Path(checkpoint_root) / case_id)
        requests.append(
            CaseRequest(
                case_id=case_id,
                preop_mri=patient.preop_mri,
                preop_labels=patient.preop_labels,
                scans=scans,
                config=config,
                deadline_s=deadline_s,
                checkpoint_dir=checkpoint,
            )
        )
    return requests


def run_wave(loop, requests: list[CaseRequest]) -> tuple[list[str], list[str]]:
    """Submit one wave of ``requests`` to a serving loop, then ``run()`` it.

    ``loop`` is a :class:`ShardGateway` or a :class:`SessionServer`; its
    ``results`` then hold every terminal case, refused ones included.
    Returns the admitted and the durable (journaled) case ids.
    """
    admitted: list[str] = []
    durable: list[str] = []
    for request in requests:
        if loop.submit(request) is None:
            admitted.append(request.case_id)
            if request.checkpoint_dir is not None:
                durable.append(request.case_id)
    loop.run()
    return admitted, durable


def run_serial(requests: list[CaseRequest]) -> tuple[float, dict[str, list[str]]]:
    """Back-to-back sessions, one per case; returns (seconds, checksums)."""
    from repro.core.pipeline import IntraoperativePipeline
    from repro.core.session import SurgicalSession

    checksums: dict[str, list[str]] = {}
    t0 = time.perf_counter()
    for request in requests:
        pipeline = IntraoperativePipeline(
            config=request.config if request.config is not None else PipelineConfig()
        )
        session = SurgicalSession.begin(
            pipeline, request.preop_mri, request.preop_labels
        )
        shas = []
        for index, scan in enumerate(request.scans):
            result = session.process(scan)
            shas.append(outcome_from_result(index, result).nodal_sha)
        checksums[request.case_id] = shas
    return time.perf_counter() - t0, checksums


def run_pool(
    requests: list[CaseRequest],
    n_workers: int,
    metrics=None,
    policy: str = "fifo",
    telemetry: bool = False,
    server_sink: list | None = None,
) -> tuple[float, dict[str, list[str]], int]:
    """Serve all cases through a worker pool.

    Returns ``(seconds, checksums, preop_cache_hits)``. Worker spawn is
    excluded from the timing (a server is long-lived; admission-to-last-
    result is the serving latency), submission and scheduling are not.
    ``telemetry`` turns the full cross-process telemetry path on
    (defaults off so the headline throughput number measures serving,
    not instrumentation); passing a ``server_sink`` list appends the
    server before shutdown so callers can export its trace/SLOs.
    """
    server = SessionServer(
        n_workers=n_workers,
        queue_capacity=max(len(requests), 1),
        policy=policy,
        metrics=metrics,
        telemetry=telemetry,
    )
    if server_sink is not None:
        server_sink.append(server)
    try:
        t0 = time.perf_counter()
        run_wave(server, requests)
        elapsed = time.perf_counter() - t0
        checksums = {}
        hits = 0
        for request in requests:
            result = server.results[request.case_id]
            if not result.ok:
                raise ValidationError(
                    f"benchmark case {request.case_id!r} ended "
                    f"{result.status}: {result.detail}"
                )
            checksums[request.case_id] = [s.nodal_sha for s in result.scans]
            hits += int(result.preop_cache_hit)
    finally:
        server.shutdown()
    return elapsed, checksums, hits


def run_throughput_benchmark(
    n_cases: int = 4,
    n_workers: int = 4,
    scans_per_case: int = 1,
    shape: tuple[int, int, int] = (32, 32, 24),
    mesh_cell_mm: float = 3.0,
    shift_mm: float = 5.0,
    seed: int = 7,
    metrics=None,
    telemetry: bool = False,
    server_sink: list | None = None,
) -> ThroughputReport:
    """Measure pool-vs-serial throughput on one patient's concurrent cases.

    The default sizing (coarse image grid, 3 mm mesh) makes the
    preoperative build the dominant fixed cost — the clinically faithful
    regime (the paper precomputes preoperatively *because* that work is
    heavy) — so the preop-cache architecture, not core count, carries
    the speedup and the benchmark is meaningful on small CI machines.
    """
    requests = make_soak_requests(
        n_cases, scans_per_case, shape, mesh_cell_mm, 1, seed, shift_mm=shift_mm
    )
    serial_seconds, serial_checksums = run_serial(requests)
    pool_seconds, pool_checksums, hits = run_pool(
        requests,
        n_workers,
        metrics=metrics,
        telemetry=telemetry,
        server_sink=server_sink,
    )
    bit_identical = serial_checksums == pool_checksums
    return ThroughputReport(
        n_cases=n_cases,
        n_workers=n_workers,
        scans_per_case=scans_per_case,
        serial_seconds=serial_seconds,
        pool_seconds=pool_seconds,
        bit_identical=bit_identical,
        preop_cache_hits=hits,
        shape=tuple(shape),
        mesh_cell_mm=mesh_cell_mm,
        serial_checksums=serial_checksums,
        pool_checksums=pool_checksums,
    )


def run_soak(
    n_cases: int = 12,
    n_shards: int = 2,
    workers_per_shard: int = 1,
    scans_per_case: int = 1,
    shape: tuple[int, int, int] = (24, 24, 16),
    mesh_cell_mm: float = 8.0,
    n_patients: int = 3,
    waves: int = 2,
    queue_capacity: int = 6,
    durable_every: int = 2,
    checkpoint_root: str | None = None,
    faults: str | ServingFaultPlan | None = DEFAULT_FAULTS,
    shedding: SheddingLadder | None = None,
    max_attempts: int = 3,
    seed: int = 7,
    gateway_sink: list | None = None,
) -> SoakReport:
    """Run the chaos soak; returns the audited :class:`SoakReport`.

    Cases are submitted in ``waves`` bursts with the gateway run between
    them: bursts overfill the bounded queue, which is what walks the
    shedding ladder (queue fill is the dominant pressure signal on a
    cold estimator). Faults fire inside the runs by dispatch ordinal.
    Passing a ``gateway_sink`` list appends the gateway before shutdown
    so callers can export its trace, metrics and flight recorders.
    """
    faults = _fault_plan(faults)
    requests = make_soak_requests(
        n_cases, scans_per_case, shape, mesh_cell_mm, n_patients, seed,
        durable_every, checkpoint_root,
    )
    gateway = ShardGateway(
        n_shards=n_shards,
        workers_per_shard=workers_per_shard,
        queue_capacity=queue_capacity,
        max_attempts=max_attempts,
        shedding=shedding,
        serving_faults=faults,
    )
    if gateway_sink is not None:
        gateway_sink.append(gateway)
    admitted: list[str] = []
    durable: list[str] = []
    try:
        t0 = time.perf_counter()
        per_wave = max(1, (len(requests) + waves - 1) // max(1, waves))
        for wave_start in range(0, len(requests), per_wave):
            wave_admitted, wave_durable = run_wave(
                gateway, requests[wave_start : wave_start + per_wave]
            )
            admitted += wave_admitted
            durable += wave_durable
        peak_rss_mb = _workers_peak_rss_mb(gateway)
        gateway.drain(timeout=30.0)
        elapsed = time.perf_counter() - t0
        return _audit(
            gateway, requests, admitted, durable, elapsed, waves, peak_rss_mb
        )
    finally:
        gateway.shutdown()


def _fault_plan(faults: str | ServingFaultPlan | None) -> ServingFaultPlan | None:
    return ServingFaultPlan.parse(faults) if isinstance(faults, str) else faults


def _workers_peak_rss_mb(gateway: ShardGateway) -> float:
    return sum(shard.pool.peak_rss_mb() for shard in gateway.live_shards())


def _audit(
    gateway: ShardGateway,
    requests: list[CaseRequest],
    admitted: list[str],
    durable: list[str],
    elapsed: float,
    waves: int,
    peak_rss_mb: float,
    results: dict | None = None,
) -> SoakReport:
    """Assemble the report and the lost-case accounting.

    ``results`` defaults to the gateway's own terminal map; the network
    soak passes the *client-received* results instead, so the audit
    covers the full wire path (a result the server produced but never
    delivered counts as unterminated).
    """
    if results is None:
        results = gateway.results
    statuses: dict[str, int] = {}
    for case_id in admitted:
        result = results.get(case_id)
        if result is not None:
            statuses[result.status] = statuses.get(result.status, 0) + 1
    unterminated = [cid for cid in admitted if cid not in results]
    lost = [cid for cid in durable if cid not in results]
    counter_names = (
        "serving.admitted",
        "serving.rejected",
        "serving.shed",
        "serving.shed_rejected",
        "serving.readmitted",
        "serving.failover",
        "serving.failed",
        "serving.worker_deaths",
        "serving.shard_deaths",
        "serving.hangs",
        "serving.dropped_results",
        "serving.respawn",
        "serving.preop_evictions",
        "serving.evicted",
        "serving.scans",
        "serving.drains",
    )
    counters = {
        name: gateway.metrics.value(name, 0.0) for name in counter_names
    }
    shed_levels = {}
    for level in ("coarse-fem", "previous-field", "rigid-only"):
        count = gateway.metrics.value(f"serving.shed[level={level}]", 0.0)
        if count:
            shed_levels[level] = int(count)
    first = requests[0]
    return SoakReport(
        n_cases=len(requests),
        n_shards=len(gateway.shards),
        workers_per_shard=max(
            (s.pool.n_workers for s in gateway.shards.values() if not s.pool.dead),
            default=0,
        ),
        scans_per_case=first.n_scans,
        shape=tuple(first.preop_mri.shape),
        mesh_cell_mm=(
            first.config.mesh_cell_mm if first.config is not None else 0.0
        ),
        waves=waves,
        elapsed_seconds=elapsed,
        scans_total=int(counters["serving.scans"]),
        faults_injected=(
            list(gateway.faults.log) if gateway.faults is not None else []
        ),
        counters=counters,
        shed_levels=shed_levels,
        statuses=statuses,
        durable_cases=len(durable),
        lost_cases=lost,
        unterminated_cases=unterminated,
        latency=slo_summary(gateway.metrics) if gateway.telemetry else {},
        workers_peak_rss_mb=peak_rss_mb,
    )


def run_net_soak(
    n_cases: int = 8,
    n_shards: int = 2,
    workers_per_shard: int = 1,
    scans_per_case: int = 1,
    shape: tuple[int, int, int] = (24, 24, 16),
    mesh_cell_mm: float = 8.0,
    n_patients: int = 2,
    queue_capacity: int = 8,
    durable_every: int = 2,
    checkpoint_root: str | None = None,
    faults: str | ServingFaultPlan | None = DEFAULT_NET_GATEWAY_FAULTS,
    wire_faults: str | ServingFaultPlan | None = DEFAULT_WIRE_FAULTS,
    max_attempts: int = 3,
    seed: int = 7,
    wait_timeout_s: float = 600.0,
    gateway_sink: list | None = None,
    frontend_sink: list | None = None,
) -> SoakReport:
    """Chaos-soak the serving tier end-to-end through a real socket.

    The gateway runs behind a :class:`NetworkFrontEnd` on a loopback
    listener; a retrying :class:`NetClient` uploads each patient's
    preop model once, submits every case with delta-compressed scans,
    and rides out the injected wire chaos (resets, truncations, delayed
    ACKs, duplicate deliveries, a partition) with reconnect + resubmit.
    On top of :func:`run_soak`'s durability contract the report's
    ``net`` block audits exactly-once execution under duplicates and
    merges the client's retry/breaker/byte counters into the gateway
    registry so one telemetry bundle covers both ends of the wire.
    """
    from repro.serving.netclient import NetClient
    from repro.serving.transport import NetworkFrontEnd

    faults, wire_faults = _fault_plan(faults), _fault_plan(wire_faults)
    requests = make_soak_requests(
        n_cases, scans_per_case, shape, mesh_cell_mm, n_patients, seed,
        durable_every, checkpoint_root,
    )
    gateway = ShardGateway(
        n_shards=n_shards,
        workers_per_shard=workers_per_shard,
        queue_capacity=queue_capacity,
        max_attempts=max_attempts,
        serving_faults=faults,
    )
    if gateway_sink is not None:
        gateway_sink.append(gateway)
    frontend = NetworkFrontEnd(gateway, wire_faults=wire_faults)
    if frontend_sink is not None:
        frontend_sink.append(frontend)
    admitted: list[str] = []
    durable: list[str] = []
    refused: dict[str, str] = {}
    client = None
    try:
        t0 = time.perf_counter()
        frontend.start_in_thread()
        client = NetClient("127.0.0.1", frontend.port)
        for request in requests:
            try:
                client.submit(request)
            except ValidationError as exc:  # refused at the front door
                refused[request.case_id] = str(exc)
                continue
            admitted.append(request.case_id)
            if request.checkpoint_dir is not None:
                durable.append(request.case_id)
        results = dict(client.wait(timeout=wait_timeout_s))
        elapsed = time.perf_counter() - t0
        # One bundle for both ends of the wire: fold the client's
        # net.client.* counters into the gateway registry before the
        # counters are sampled for the report.
        gateway.metrics.merge(client.metrics.snapshot())
        report = _audit(
            gateway, requests, admitted, durable, elapsed, waves=1,
            peak_rss_mb=_workers_peak_rss_mb(gateway), results=results,
        )
        report.faults_injected.extend(
            wire_faults.log if wire_faults is not None else []
        )
        metrics = gateway.metrics.as_dict()
        report.net = {
            name.removeprefix("net."): value
            for name, value in metrics.items()
            if name.startswith("net.") and not name.startswith("net.client.")
        }
        report.net.update(
            {
                "client_" + name.removeprefix("net.client."): value
                for name, value in metrics.items()
                if name.startswith("net.client.")
            }
        )
        report.net["refused"] = refused
        report.net["breaker_trips"] = client.breaker.trips
        report.net["breaker_state"] = client.breaker.state
        report.net["double_solved"] = sorted(
            key for key, count in frontend.exec_counts.items() if count > 1
        )
        return report
    finally:
        if client is not None:
            client.close()
        frontend.stop_from_thread()
        gateway.shutdown()
