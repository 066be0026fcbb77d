"""The serving control loop: admission, routing, failover, shedding.

:class:`ShardGateway` fronts several independent
:class:`repro.serving.SessionWorkerPool` shards (process groups standing
in for hosts) with one single-threaded control loop that runs in the
caller (:meth:`ShardGateway.run` / :meth:`ShardGateway.tick`), so
serving is deterministic and trivially testable; the concurrency lives
in the worker processes. It is the only control loop in the serving
tier: the single-host :class:`repro.serving.SessionServer` is this
class configured with one shard (see :mod:`repro.serving.server`).

Per iteration the loop fires due chaos faults, evicts queued cases
whose deadline expired, dispatches queued cases onto idle workers of
their routed shard (scheduler policy + preop affinity),
collects finished results, terminates+evicts running cases past their
deadline, and re-admits cases interrupted by a worker death, a hang, a
lost reply or a shard loss:

* **Routing** — cases route to shards by consistent hashing of their
  ``preop_key`` (:class:`repro.serving.ConsistentHashRing`), so a
  patient's cases always land where that patient's preoperative model
  is already cached, and a shard loss remaps only the lost shard's keys.
* **Failover** — when a shard dies (injected ``kill-shard`` fault, or
  :meth:`kill_shard`), its in-flight cases are re-admitted to the
  survivors with bounded retry: capped exponential backoff with
  deterministic jitter, ``max_attempts`` accounting, and journal replay
  for durable cases (committed scans come back bit-exact as the
  journal's records, ``restored`` — never recomputed).
* **Hang detection** — a worker that stops heartbeating past an
  adaptive timeout (scaled from the EWMA service estimates) is wedged,
  not slow: it is terminated and its case re-admitted, so a
  ``hang-worker`` fault costs one timeout, never the drill.
* **Load shedding** — admission pressure walks the
  :class:`repro.serving.SheddingLadder`: overload first degrades
  fidelity (coarse-FEM -> previous-field -> rigid-only stamped as the
  case's ``shed_level``) and only rejects once every rung is active.

Every transition lands in the metrics registry — global ``serving.*``
series plus shard-labelled copies (``name[shard=K]``, the same
convention the telemetry merge uses for ``name[worker=N]``) — and as
events on the tracer; worker telemetry frames graft into the loop's
trace with per-shard process labels (``shardK-workerN``), one Perfetto
lane per shard worker.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.obs.budget import render_slo_summary, slo_summary
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TraceContext, graft_frame
from repro.obs.trace import Tracer, get_tracer
from repro.resilience.faults import SERVING_FAULTS, ServingFaultPlan
from repro.serving.admission import AdmissionQueue, ServiceEstimator, SheddingLadder
from repro.serving.pool import SessionWorkerPool
from repro.serving.protocol import (
    STATUS_EVICTED,
    STATUS_FAILED,
    STATUS_REJECTED,
    CaseRequest,
    CaseResult,
    retry_backoff,
)
from repro.serving.scheduler import Scheduler
from repro.serving.shard import ConsistentHashRing, Shard
from repro.util import ValidationError, format_table

#: Heartbeat-silence floor before a busy worker counts as hung, while the
#: estimator is uncalibrated.
HANG_GRACE_FLOOR_S = 5.0
#: The same floor for a worker building a patient model it did not hold
#: at dispatch: a cold paper-size build plus its first scan is silent for
#: about 5.6 s on a 2-vCPU machine, past :data:`HANG_GRACE_FLOOR_S`.
BUILD_GRACE_FLOOR_S = 15.0
#: Cap of the re-admission backoff (:func:`repro.serving.protocol.retry_backoff`).
RETRY_CAP_S = 2.0


class ShardGateway:
    """Sharded serving of surgical sessions with failover and shedding.

    Parameters
    ----------
    n_shards / workers_per_shard:
        Fleet shape: ``n_shards`` independent pools of
        ``workers_per_shard`` processes each.
    queue_capacity:
        Bound of the (single, gateway-wide) admission queue — the
        backpressure boundary.
    policy:
        Case-ordering policy, ``"fifo"`` or ``"deadline"`` (EDF).
    max_attempts:
        Dispatch attempts per case before failover marks it failed
        (>= 1).
    shedding:
        The overload ladder; ``None`` installs the default
        :class:`repro.serving.SheddingLadder`. A ladder whose thresholds
        are all infinite never sheds.
    serving_faults:
        Optional :class:`repro.resilience.ServingFaultPlan`; due specs
        fire from the control loop (chaos drills).
    retry_base_s:
        Re-admission backoff base: attempt ``k`` waits
        :func:`repro.serving.protocol.retry_backoff` of it, capped at
        :data:`RETRY_CAP_S`, before redispatch; a zero base re-admits at
        once.
    hang_timeout_s:
        Heartbeat-silence threshold for wedged-worker detection.
        ``None`` adapts from the EWMA estimates (never below 5 s), so
        legitimately long solves are not shot; infinity turns the
        detection off.
    metrics / tracer:
        Observability hooks; a private registry / the ambient tracer
        are used when omitted. With ``telemetry`` on and no tracer
        given, the loop creates its own enabled tracer (labelled
        :attr:`label`) so the unified cross-process trace exists without
        any caller wiring.
    telemetry:
        When on (the default), every admitted case gets a ``serve.case``
        span covering queue wait through terminal record; requests are
        stamped with a :class:`repro.obs.telemetry.TraceContext` at
        dispatch; worker telemetry frames are grafted into the loop's
        trace and merged into its registry; and flight-recorder rings
        (one per worker, one for the control plane) are persisted under
        :attr:`flight_dir`. ``False`` serves
        dark — the pre-telemetry fast path, every hook skipped.
    flight_dir:
        Directory for flight-recorder dumps (workers spool
        ``worker-<id>.json`` after every scan; the loop dumps
        ``<label>.json`` on evictions, deaths, hangs and failures). A
        temp directory is created when omitted and telemetry is on.
    drain_dir:
        Forwarded to every :class:`repro.serving.SessionWorkerPool`.
    """

    # What a configuration of the loop calls itself. Class-level data,
    # not parameters: SessionServer overrides these five strings (and
    # nothing else) to keep its single-host names.
    #: Tracer / flight-recorder label, ``<label>.json`` control-plane dump.
    label = "gateway"
    #: Trace lane (process label) of a shard's worker.
    lane = "shard{shard}-worker{worker}"
    #: How failure details name a worker.
    worker_desc = "worker {worker} (shard {shard})"
    summary_title = "Gateway serving summary"
    summary_footer = (
        "served: {ok}/{n} | shards: {live}/{shards} up | workers: {workers}"
        " | worker deaths: {deaths} | shard deaths: {shard_deaths} | shed: {shed}"
    )

    def __init__(
        self,
        n_shards: int = 2,
        workers_per_shard: int = 2,
        queue_capacity: int = 32,
        policy: str = "fifo",
        max_attempts: int = 3,
        shedding: SheddingLadder | None = None,
        serving_faults: ServingFaultPlan | None = None,
        retry_base_s: float = 0.1,
        hang_timeout_s: float | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        telemetry: bool = True,
        flight_dir: str | None = None,
        drain_dir: str | None = None,
    ):
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        if max_attempts < 1:
            raise ValidationError(f"max_attempts must be >= 1, got {max_attempts}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.telemetry = bool(telemetry)
        if tracer is not None:
            self.tracer = tracer
        elif self.telemetry:
            self.tracer = Tracer(process_label=self.label)
        else:
            self.tracer = None
        if self.telemetry and flight_dir is None:
            flight_dir = tempfile.mkdtemp(prefix=f"repro-{self.label}-flight-")
        self.flight_dir = flight_dir
        self.flight = FlightRecorder(enabled=self.telemetry, label=self.label)
        self.estimator = ServiceEstimator()
        self.queue = AdmissionQueue(queue_capacity, self.estimator)
        self.scheduler = Scheduler(policy)
        self.shedding = shedding if shedding is not None else SheddingLadder()
        self.faults = serving_faults
        self.max_attempts = int(max_attempts)
        self.retry_base_s = float(retry_base_s)
        self.hang_timeout_s = hang_timeout_s
        self.shards: dict[int, Shard] = {}
        for shard_id in range(n_shards):
            self.shards[shard_id] = Shard(
                shard_id, SessionWorkerPool(workers_per_shard, drain_dir=drain_dir)
            )
        self.ring = ConsistentHashRing(list(self.shards))
        self.results: dict[str, CaseResult] = {}
        self.dispatched_total = 0
        #: Ids of the cases the latest :meth:`tick` (or :meth:`drain`) made
        #: terminal, in the order their results landed in :attr:`results`;
        #: the next one starts the list afresh. A driver that pushes
        #: results to subscribers (the network front-end) publishes
        #: exactly these instead of walking every result ever produced.
        self.terminal_ids: list[str] = []
        # Per-case bookkeeping, all keyed by case_id and all cleared at
        # the case's terminal point (_terminate / _record), so a
        # long-lived front-end does not grow them per case served.
        self._attempts: dict[str, int] = {}
        self._admitted_at: dict[str, float] = {}
        self._case_spans: dict[str, object] = {}
        #: case_id -> the dispatched request, while in flight on a shard.
        #: The gateway keeps its own copy (workers own pickled ones) so a
        #: lost reply or dead shard can re-admit without reconstructing.
        self._inflight: dict[str, CaseRequest] = {}
        #: case_id -> True while the serving worker is building the
        #: patient's preoperative model (the worker did not report it
        #: resident before the dispatch): health probes report such
        #: workers "building-preop" instead of counting the long silence
        #: toward wedged detection.
        self._building: dict[str, bool] = {}
        self._not_before: dict[str, float] = {}
        self._drop_results: dict[int, int] = {}
        self._respawns_seen: dict[int, int] = {}
        #: (shard, worker) -> the worker's PreopCacheReport last mirrored.
        self._cache_seen: dict[tuple[int, int], object] = {}
        self._closed = False

    # -- small helpers --------------------------------------------------------

    def _trace(self) -> Tracer:
        return self.tracer if self.tracer is not None else get_tracer()

    def _note(self, name: str, **attrs) -> None:
        """Record one serving decision, under one name and one attribute
        set, in the control-plane flight ring and in the trace."""
        self.flight.note(name, **attrs)
        self._trace().event(name, **attrs)

    def _check_open(self) -> None:
        if self._closed:
            raise ValidationError(f"{self.label} is shut down")

    def live_shards(self) -> list[Shard]:
        return [s for s in self.shards.values() if s.up]

    def _close_case_span(self, case_id: str, **attrs) -> None:
        span = self._case_spans.pop(case_id, None)
        if span is not None:
            span.close(**attrs)

    def _case_span_id(self, case_id: str):
        span = self._case_spans.get(case_id)
        record = getattr(span, "record", None)
        return None if record is None else record.span_id

    def _dump_flight(self, reason: str, **context) -> None:
        """Persist the control-plane flight ring as ``<label>.json``."""
        if not self.telemetry or self.flight_dir is None:
            return
        self.flight.dump(
            Path(self.flight_dir) / f"{self.label}.json", reason, context=context
        )

    def _worker_flight_dump(self, worker_id: int) -> str | None:
        """Name (under :attr:`flight_dir`) of a worker's persisted flight ring,
        when one exists."""
        if self.flight_dir is None:
            return None
        spool = Path(self.flight_dir) / f"worker-{worker_id}.json"
        return spool.name if spool.is_file() else None

    def _backlog_seconds(self) -> float:
        """Estimated seconds of work queued or running ahead of a new case."""
        est = self.estimator
        total = 0.0
        for queued in self.queue.items():
            total += est.case_seconds(queued.request.n_scans, preop_cached=False)
        for shard in self.live_shards():
            for handle in shard.pool.busy_workers():
                total += est.case_seconds(handle.busy.n_scans, preop_cached=True) / 2.0
        return total

    def _model_resident(self, key: str) -> bool:
        """Does a worker of the shard ``key`` routes to hold (or build) its model?"""
        if not self.ring.shards:
            return False
        workers = self.shards[self.ring.route(key)].pool.workers
        return any(key in handle.cached_keys for handle in workers)

    def _forget(self, case_id: str) -> None:
        """Clear a terminal case's bookkeeping (its span closes separately)."""
        for per_case in (
            self._attempts,
            self._admitted_at,
            self._not_before,
            self._building,
            self._inflight,
        ):
            per_case.pop(case_id, None)

    def _terminate(
        self,
        request: CaseRequest,
        status: str,
        detail: str,
        where: str | None = None,
        shard: int | None = None,
        worker: int | None = None,
        dump: str | None = None,
        **fields,
    ) -> None:
        """The one terminal point for a case the loop itself ends.

        Evictions (queued, running, drain, drain-timeout) and failures
        (attempts exhausted, no live shards) all land here: count the
        status, close the ``serve.case`` span, note the decision, dump
        the control-plane flight ring for ``dump`` (a reason) when
        given, write the terminal :class:`CaseResult` and clear the
        case's bookkeeping. A case that was in flight lost its
        worker — and with it the telemetry frame; the worker's last
        per-scan flight spool is the post-mortem the result points at.
        (Results a worker produced take :meth:`_record` instead.)
        """
        case_id = request.case_id
        at = {
            k: v
            for k, v in (("where", where), ("shard", shard), ("worker", worker))
            if v is not None
        }
        self.metrics.counter(f"serving.{status}").inc()
        span_attrs = dict(at, status=status)
        if case_id in self._inflight:
            if self.telemetry:
                self.metrics.counter("telemetry.frames_lost").inc()
            span_attrs["telemetry_lost"] = True
        self._close_case_span(case_id, **span_attrs)
        self._note(f"serving.{status}", case=case_id, **at)
        if dump is not None:
            self._dump_flight(dump, case=case_id, **at)
        self.results[case_id] = CaseResult(
            case_id=case_id,
            status=status,
            detail=detail,
            worker=worker,
            attempts=self._attempts.get(case_id, 0),
            checkpoint=request.checkpoint_dir,
            flight_dump=(
                None if worker is None else self._worker_flight_dump(worker)
            ),
            **fields,
        )
        self.terminal_ids.append(case_id)
        self._forget(case_id)

    # -- admission (with shedding) -------------------------------------------

    def submit(self, request: CaseRequest) -> CaseResult | None:
        """Offer a case; apply the shedding ladder, then admission control.

        Returns ``None`` on admission (terminal result appears in
        :attr:`results` after :meth:`run`) or the immediate ``rejected``
        result when backpressure or the deadline-feasibility verdict
        refused it. Under overload the case may be admitted with a
        ``shed_level`` stamped — served degraded rather than refused.
        """
        self._check_open()
        if (
            request.case_id in self.results
            or request.case_id in self._inflight
            or any(q.request.case_id == request.case_id for q in self.queue.items())
        ):
            raise ValidationError(f"duplicate case_id {request.case_id!r}")
        backlog = self._backlog_seconds()
        decision = self.shedding.decide(
            self.shedding.pressure(
                queue_fill=len(self.queue) / self.queue.capacity,
                backlog_seconds=backlog,
                n_workers=sum(s.pool.n_workers for s in self.live_shards()),
            )
        )
        self.metrics.gauge("serving.pressure").set(decision.pressure)
        if decision.reject:
            return self._reject(
                request,
                f"load shed: reject (pressure {decision.pressure:.2f})",
                shed=True,
            )
        if decision.level is not None:
            request.shed_level = int(decision.level)
            self.metrics.counter("serving.shed").inc()
            self.metrics.counter(f"serving.shed[level={decision.level.label}]").inc()
            self._note(
                "serving.shed",
                case=request.case_id,
                level=decision.level.label,
                pressure=round(decision.pressure, 3),
            )
        preop_cached = self._model_resident(request.preop_key())
        # Deadline budget already burned before admission: network
        # transit + transport queuing, from the client-stamped wall
        # clock. Charged against deadline_s instead of extending it.
        waited_s = 0.0
        if request.client_enqueue_unix is not None:
            waited_s = max(0.0, time.time() - float(request.client_enqueue_unix))
            self.metrics.histogram("serving.network_wait_seconds").observe(waited_s)
        admitted, verdict, detail = self.queue.admit(
            request,
            backlog_seconds=backlog,
            preop_cached=preop_cached,
            waited_s=waited_s,
        )
        self.metrics.gauge("serving.queue_depth").set(len(self.queue))
        if not admitted:
            return self._reject(request, detail)
        self.metrics.counter("serving.admitted").inc()
        self._admitted_at[request.case_id] = time.monotonic() - waited_s
        self._attempts.setdefault(request.case_id, 0)
        if self.telemetry:
            self._case_spans[request.case_id] = self._trace().open_span(
                "serve.case",
                kind="serving",
                case_id=request.case_id,
                n_scans=request.n_scans,
            )
        self._note(
            "serving.admitted",
            case=request.case_id,
            verdict=verdict.label if verdict is not None else "ok",
            shed=request.shed_level,
            queue_depth=len(self.queue),
        )
        return None

    def _reject(
        self, request: CaseRequest, detail: str, shed: bool = False
    ) -> CaseResult:
        self.metrics.counter("serving.rejected").inc()
        if shed:
            self.metrics.counter("serving.shed_rejected").inc()
        self._note("serving.rejected", case=request.case_id, detail=detail)
        result = CaseResult(
            case_id=request.case_id, status=STATUS_REJECTED, detail=detail
        )
        self.results[request.case_id] = result
        return result

    # -- the control loop -----------------------------------------------------

    def run(self, poll_seconds: float = 0.05) -> dict[str, CaseResult]:
        """Serve until the queue is empty and every shard is quiet.

        Returns :attr:`results` (case_id -> terminal result). Safe to
        call repeatedly: each call serves whatever was submitted since
        the last one.
        """
        self._check_open()
        t0 = time.perf_counter()
        scans_before = self.metrics.value("serving.scans", 0.0)
        with self._trace().span("serve.run", kind="serving") as span:
            while self.tick(poll_seconds):
                pass
            elapsed = time.perf_counter() - t0
            scans = self.metrics.value("serving.scans", 0.0) - scans_before
            if elapsed > 0 and scans:
                self.metrics.gauge("serving.throughput_scans_per_s").set(
                    scans / elapsed
                )
            span.set(seconds=elapsed, scans=int(scans))
        return self.results

    def tick(self, poll_seconds: float = 0.05) -> bool:
        """One control-loop iteration; ``False`` when the gateway is idle.

        :meth:`run` is ``while tick(): pass`` — a long-lived driver (the
        network front-end) calls :meth:`tick` directly instead, so new
        submissions can interleave between iterations. An idle tick is
        not free of duty: it still absorbs worker heartbeats and runs
        pool maintenance, so a server idling between cases neither grows
        the result queues without bound nor misses a respawn.
        :attr:`terminal_ids` names the cases this iteration finished.
        """
        self.terminal_ids = []
        self._check_open()
        if not self._working():
            for shard in self.live_shards():
                for result in shard.pool.poll_results(timeout=0.0):
                    self._record(shard, result)
            self._maintain()
            return False
        self._fire_due_faults()
        self._evict_expired_queued()
        self._dispatch_ready()
        self._collect(poll_seconds)
        self._enforce_running_deadlines()
        self._handle_deaths()
        self._detect_hangs()
        self._maintain()
        return True

    def _working(self) -> bool:
        if len(self.queue) == 0 and not any(
            s.pool.busy_workers() for s in self.live_shards()
        ):
            return False
        if not self.live_shards():
            # Total fleet loss: nothing can ever serve the remaining
            # queue — fail it explicitly rather than spin forever.
            for queued in self.queue.clear():
                self._terminate(
                    queued.request, STATUS_FAILED, "no live shards remain"
                )
            return False
        return True

    # -- chaos ----------------------------------------------------------------

    def _fire_due_faults(self) -> None:
        if self.faults is None:
            return
        # Poll only gateway-level kinds: a shared plan may also carry
        # wire-level specs the network front-end consumes by submit
        # ordinal — firing them here would silently eat them.
        for spec in self.faults.due(self.dispatched_total, kinds=SERVING_FAULTS):
            shard = self.shards.get(spec.shard)
            self._note("serving.fault", fault=spec.describe())
            if shard is None or not shard.up:
                continue
            if spec.kind == "kill-shard":
                self.kill_shard(spec.shard, cause=f"injected: {spec.describe()}")
            elif spec.kind == "hang-worker":
                shard.pool.inject_hang()
            elif spec.kind == "slow-shard":
                shard.pool.inject_slow(spec.delay_s)
            elif spec.kind == "drop-result":
                self._drop_results[spec.shard] = (
                    self._drop_results.get(spec.shard, 0) + 1
                )

    def kill_shard(self, shard_id: int, cause: str = "killed") -> None:
        """Kill a shard and fail its work over to the survivors.

        The shard's processes are SIGKILLed, its virtual nodes leave the
        ring (remapping only its keys), and its in-flight cases are
        re-admitted — durable ones resume from their journal on whatever
        shard the ring now routes them to.
        """
        shard = self.shards.get(shard_id)
        if shard is None:
            raise ValidationError(f"no shard with id {shard_id}")
        if not shard.up:
            return
        interrupted = shard.kill()
        if shard_id in self.ring:
            self.ring.remove(shard_id)
        self.metrics.counter("serving.shard_deaths").inc()
        self.metrics.counter(f"serving.deaths[shard={shard_id}]").inc()
        self._note(
            "serving.shard_death",
            shard=shard_id,
            cause=cause,
            interrupted=[r.case_id for r in interrupted],
        )
        self._dump_flight("shard death", shard=shard_id, cause=cause)
        for request in interrupted:
            self.metrics.counter("serving.failover").inc()
            self._readmit(request, f"shard {shard_id} died ({cause})", shard_id)

    # -- dispatch -------------------------------------------------------------

    def _dispatch_ready(self) -> None:
        skipped: set[str] = set()
        while len(self.queue) > len(skipped):
            now = time.monotonic()
            items = self.queue.items()
            candidates = [
                i
                for i, q in enumerate(items)
                if q.request.case_id not in skipped
                and self._not_before.get(q.request.case_id, 0.0) <= now
            ]
            if not candidates:
                return
            index = candidates[
                self.scheduler.next_index([items[i] for i in candidates])
            ]
            request = items[index].request
            key = request.preop_key()
            if not self.ring.shards:
                return
            shard = self.shards[self.ring.route(key)]
            idle = shard.pool.idle_workers()
            if not idle or self.scheduler.should_hold(
                idle, shard.pool.busy_workers(), key
            ):
                # The routed shard is saturated (or single-flighting this
                # patient's model build on a busy worker): the case waits
                # for *its* shard — jumping shards would forfeit the warm
                # cache the ring exists to protect.
                skipped.add(request.case_id)
                continue
            self._dispatch(index, shard, idle, key)

    def _dispatch(self, index: int, shard, idle: list, key: str) -> None:
        """Pop the queued case at ``index`` and send it to one worker.

        It leaves onto an affine worker of the routed shard with its
        trace context stamped, its attempt counted, an in-flight copy
        kept and its deadline set as the worker's ``busy_deadline``.
        One dispatch ordinal is consumed — what an injected fault counts.
        """
        queued = self.queue.pop(index)
        request = queued.request
        handle = self.scheduler.pick_worker(idle, key)
        lane = self.lane.format(shard=shard.shard_id, worker=handle.worker_id)
        self._not_before.pop(request.case_id, None)
        self._attempts[request.case_id] = self._attempts.get(request.case_id, 0) + 1
        self._building[request.case_id] = key not in handle.cached_keys
        if self.telemetry:
            # Stamp the trace context at the dispatch instant: the
            # anchor aligns the worker's clock origin with *now* on
            # the loop's clock, so grafted spans land where the
            # worker actually ran. Re-dispatch after a death
            # re-stamps with a fresh anchor.
            request.trace_context = TraceContext.from_tracer(
                self._trace(),
                parent_span_id=self._case_span_id(request.case_id),
                process_label=lane,
            )
            request.flight_dir = self.flight_dir
        self._inflight[request.case_id] = request
        shard.pool.dispatch(handle, request)
        handle.busy_deadline = queued.deadline_monotonic
        self.dispatched_total += 1
        self.metrics.gauge("serving.queue_depth").set(len(self.queue))
        self.metrics.counter(f"serving.dispatch[shard={shard.shard_id}]").inc()
        wait = queued.waited()
        self.metrics.histogram("serving.queue_wait_seconds").observe(wait)
        self._note(
            "serving.dispatch",
            case=request.case_id,
            shard=shard.shard_id,
            worker=handle.worker_id,
            waited=wait,
            attempt=self._attempts[request.case_id],
        )

    # -- results --------------------------------------------------------------

    def _collect(self, poll_seconds: float) -> None:
        live = self.live_shards()
        for i, shard in enumerate(live):
            # Block only on the first shard: one bounded wait per tick,
            # the rest are drained non-blocking.
            timeout = poll_seconds if i == 0 else 0.0
            for result in shard.pool.poll_results(timeout=timeout):
                if self._drop_results.get(shard.shard_id, 0) > 0:
                    self._drop_results[shard.shard_id] -= 1
                    self._dropped_result(shard, result)
                    continue
                self._record(shard, result)

    def _dropped_result(self, shard: Shard, result: CaseResult) -> None:
        """An injected ``drop-result``: the reply vanished in transit.

        The worker finished (and is idle again) but the gateway never
        saw the result — a lost reply. The case re-admits with attempts
        accounting: a durable case replays its journal (committed scans
        bit-exact), a non-durable one re-serves from scratch, and budget
        exhaustion terminates it failed — a dropped reply can never hang
        the gateway.
        """
        self.metrics.counter("serving.dropped_results").inc()
        self._note("serving.result_dropped", case=result.case_id, shard=shard.shard_id)
        request = self._inflight.get(result.case_id)
        if request is None:
            # Nothing to replay (already resolved elsewhere): keep the
            # result rather than lose the case.
            self._record(shard, result)
            return
        self._readmit(
            request,
            f"result dropped in transit (shard {shard.shard_id})",
            shard.shard_id,
            result.worker,
        )

    def _record(self, shard: Shard, result: CaseResult) -> None:
        """The terminal point for a result a worker produced."""
        result.attempts = self._attempts.get(result.case_id, 1)
        admitted = self._admitted_at.get(result.case_id)
        if admitted is not None:
            result.queue_seconds = max(
                0.0, time.monotonic() - admitted - result.service_seconds
            )
        self.results[result.case_id] = result
        self.terminal_ids.append(result.case_id)
        self._forget(result.case_id)
        m = self.metrics
        m.counter(f"serving.{result.status}").inc()
        m.counter(f"serving.served[shard={shard.shard_id}]").inc()
        m.histogram("serving.case_seconds").observe(result.service_seconds)
        m.counter("serving.scans").inc(
            len([s for s in result.scans if not s.restored])
        )
        if result.preop_cache_hit:
            m.counter("serving.preop_cache_hits").inc()
        elif result.preop_seconds > 0:
            self.estimator.observe_preop(result.preop_seconds)
        # The SLO series (slo_summary): every scan served, not restored,
        # lit or dark, read from its record.
        for record in result.scans:
            if not record.restored:
                scan_seconds = record.seconds()
                self.estimator.observe_scan(scan_seconds)
                m.histogram("budget.scan_seconds").observe(scan_seconds)
                for stage, seconds, _, _ in record.timeline:
                    m.histogram(f"budget.stage_seconds[stage={stage}]").observe(seconds)
        self._absorb_telemetry(result)
        self._note(
            "serving.case",
            status=result.status,
            case=result.case_id,
            shard=shard.shard_id,
            worker=result.worker,
            scans=len(result.scans),
            seconds=result.service_seconds,
        )
        if result.status == STATUS_FAILED:
            self._dump_flight(
                "case failed", case=result.case_id, detail=result.detail
            )

    def _absorb_telemetry(self, result: CaseResult) -> None:
        """Graft the worker's frame (its metrics with it); close the case span.

        The frame stops here: once grafted it is dropped from the result,
        so a reply carries only the scan records.
        """
        if not self.telemetry:
            return
        frame, result.telemetry = result.telemetry, None
        span_attrs = {"status": result.status, "worker": result.worker}
        if frame is not None:
            grafted = graft_frame(
                self._trace(),
                frame,
                parent_span_id=self._case_span_id(result.case_id),
                metrics=self.metrics,
            )
            self.metrics.counter("telemetry.frames").inc()
            self.metrics.counter("telemetry.spans_grafted").inc(grafted)
            span_attrs["worker_spans"] = grafted
        else:
            # The worker never replied with a frame (dark request, or
            # the case died with its worker): the trace stays intact,
            # the span is annotated instead of broken.
            self.metrics.counter("telemetry.frames_lost").inc()
            span_attrs["telemetry_lost"] = True
        self._close_case_span(result.case_id, **span_attrs)

    # -- deadline / death / hang handling -------------------------------------

    def _evict_expired_queued(self) -> None:
        for queued in self.queue.evict_expired():
            request = queued.request
            self.metrics.gauge("serving.queue_depth").set(len(self.queue))
            self._terminate(
                request,
                STATUS_EVICTED,
                f"deadline {request.deadline_s:.1f} s expired after "
                f"{queued.waited():.1f} s in queue",
                where="queued",
                dump="deadline eviction",
                queue_seconds=queued.waited(),
            )

    def _enforce_running_deadlines(self) -> None:
        now = time.monotonic()
        for shard in self.live_shards():
            for handle in list(shard.pool.busy_workers()):
                if handle.busy_deadline is None or now <= handle.busy_deadline:
                    continue
                request = shard.pool.terminate_worker(handle.worker_id)
                if request is None:
                    continue
                self._terminate(
                    request,
                    STATUS_EVICTED,
                    f"deadline {request.deadline_s:.1f} s expired "
                    "mid-service; worker terminated",
                    where="running",
                    shard=shard.shard_id,
                    worker=handle.worker_id,
                    dump="deadline eviction",
                )

    def _readmit(
        self,
        request: CaseRequest,
        cause: str,
        shard: int | None = None,
        worker: int | None = None,
    ) -> None:
        """Bounded re-admission with capped exponential backoff + jitter.

        Re-admission goes to the head of the queue: a durable case
        resumes from its journal (committed scans come back restored,
        only the remainder is recomputed). Its ``serve.case`` span stays
        open — still in flight.
        """
        attempts = self._attempts.get(request.case_id, 1)
        if attempts >= self.max_attempts:
            self._terminate(
                request,
                STATUS_FAILED,
                f"{cause}; re-admission budget exhausted ({attempts} attempts)",
                shard=shard,
                worker=worker,
            )
            return
        self._inflight.pop(request.case_id, None)
        self._building.pop(request.case_id, None)
        delay = retry_backoff(
            self.retry_base_s, RETRY_CAP_S, attempts, request.case_id
        )
        self._not_before[request.case_id] = time.monotonic() + delay
        self.metrics.counter("serving.readmitted").inc()
        self.queue.requeue_front(request)
        self._note(
            "serving.readmitted",
            case=request.case_id,
            cause=cause,
            attempt=attempts + 1,
            delay=round(delay, 3),
        )

    def _worker_lost(
        self, shard: Shard, worker_id: int, request, what: str, cause: str, **extra
    ) -> None:
        """A worker died or was shot as hung: record it, re-admit its case."""
        at = {
            "shard": shard.shard_id,
            "worker": worker_id,
            "case": None if request is None else request.case_id,
            **extra,
        }
        self._note(f"serving.worker_{what}", **at)
        self._dump_flight(f"worker {what}", **at)
        if request is None:
            return
        who = self.worker_desc.format(worker=worker_id, shard=shard.shard_id)
        span = self._case_spans.get(request.case_id)
        if span is not None:
            span.event(f"worker.{what}", shard=shard.shard_id, worker=worker_id)
        self._readmit(request, f"{who} {cause}", shard.shard_id, worker_id)

    def _handle_deaths(self) -> None:
        for shard in self.live_shards():
            for worker_id, request in shard.pool.reap():
                self.metrics.counter("serving.worker_deaths").inc()
                self.metrics.counter(f"serving.deaths[shard={shard.shard_id}]").inc()
                self._worker_lost(shard, worker_id, request, "death", "died")

    def _hang_grace(self, building: bool = False) -> float:
        """Heartbeat-silence threshold before a busy worker counts as hung.

        Workers beat between scans, so the longest legitimate silence is
        about one preop build plus one scan. Adaptive: three times that
        EWMA estimate, floored at :data:`HANG_GRACE_FLOOR_S` (uncalibrated
        estimator), or at :data:`BUILD_GRACE_FLOOR_S` for a worker
        ``building`` its patient model — long solves and cold builds
        survive, wedged workers are caught within a few multiples of real
        service time. ``hang_timeout_s``, when set, is the grace for both.
        """
        if self.hang_timeout_s is not None:
            return self.hang_timeout_s
        est = self.estimator
        floor = BUILD_GRACE_FLOOR_S if building else HANG_GRACE_FLOOR_S
        return max(floor, 3.0 * (est.preop_seconds + est.scan_seconds))

    def _worker_state(self, pool, handle, now: float) -> tuple[str, float, float]:
        """A worker's health state, heartbeat age and grace: the one
        classification :meth:`health` reports and :meth:`_detect_hangs`
        acts on."""
        age = now - pool.heartbeats.get(handle.worker_id, now)
        if handle.idle:
            return "idle", age, self._hang_grace()
        building = self._building.get(handle.busy.case_id, False)
        grace = self._hang_grace(building)
        if age > grace:
            return "wedged", age, grace
        return ("building-preop" if building else "serving"), age, grace

    def _detect_hangs(self) -> None:
        now = time.monotonic()
        for shard in self.live_shards():
            for handle in list(shard.pool.workers):
                state, _, grace = self._worker_state(shard.pool, handle, now)
                if state != "wedged" or not handle.alive:
                    continue
                request = shard.pool.terminate_worker(handle.worker_id)
                self.metrics.counter("serving.hangs").inc()
                self._worker_lost(
                    shard,
                    handle.worker_id,
                    request,
                    "hang",
                    f"hung (silent > {grace:.1f} s)",
                    grace=round(grace, 2),
                )

    # -- health ---------------------------------------------------------------

    def health(self) -> dict:
        """Gateway-driven health snapshot for transport-level probes.

        Replaces the in-process heartbeat view with something a remote
        client can act on: **liveness** (the fleet can still take work)
        and **readiness** (it would serve a submission now), with every
        worker classified from its heartbeat age and dispatch state —

        * ``idle`` — alive, no case.
        * ``serving`` — busy, heartbeating within the hang grace.
        * ``building-preop`` — busy on a case whose patient model the
          worker did not hold at dispatch, and heartbeating within the
          longer build grace: the long silence is the model build, not a
          wedge, and readiness stays true.
        * ``wedged`` — busy and heartbeat-silent past its grace (the build
          grace while building); the next :meth:`tick` will terminate and
          re-admit it.
        """
        grace = self._hang_grace()
        now = time.monotonic()
        counts = {"idle": 0, "serving": 0, "building-preop": 0, "wedged": 0}
        shards = []
        for shard_id in sorted(self.shards):
            shard = self.shards[shard_id]
            if not shard.up:
                shards.append({"shard": shard_id, "up": False, "workers": []})
                continue
            workers = []
            for handle in shard.pool.workers:
                state, age, _ = self._worker_state(shard.pool, handle, now)
                counts[state] += 1
                workers.append(
                    {
                        "worker": handle.worker_id,
                        "state": state,
                        "heartbeat_age_s": round(age, 3),
                        "case": None if handle.busy is None else handle.busy.case_id,
                    }
                )
            shards.append({"shard": shard_id, "up": True, "workers": workers})
        live = not self._closed and bool(self.live_shards())
        responsive = counts["idle"] + counts["serving"] + counts["building-preop"]
        if self._closed:
            reason = "shut down"
        elif not live:
            reason = "no live shards"
        elif responsive == 0:
            reason = "all workers wedged"
        elif self.queue.full:
            reason = "queue full"
        else:
            reason = "ok"
        return {
            "live": live,
            "ready": live and responsive > 0 and not self.queue.full,
            "reason": reason,
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.capacity,
            "inflight": len(self._inflight),
            "hang_grace_s": round(grace, 3),
            "build_grace_s": round(self._hang_grace(building=True), 3),
            "workers": counts,
            "shards": shards,
        }

    def _maintain(self) -> None:
        """Respawn due slots; mirror respawns and cache reports into metrics."""
        for shard in self.live_shards():
            shard.pool.maintain()
            seen = self._respawns_seen.get(shard.shard_id, 0)
            if shard.pool.respawns > seen:
                self.metrics.counter("serving.respawn").inc(
                    shard.pool.respawns - seen
                )
                self._respawns_seen[shard.shard_id] = shard.pool.respawns
            self._mirror_caches(shard)

    def _mirror_caches(self, shard: Shard) -> None:
        """Mirror the model-cache reports new since the last call into metrics."""
        for handle in shard.pool.workers:
            slot = (shard.shard_id, handle.worker_id)
            seen, report = self._cache_seen.get(slot), handle.cache
            if report is seen:
                continue
            self._cache_seen[slot] = report
            at = {"shard": shard.shard_id, "worker": handle.worker_id}
            self.metrics.gauge(
                "serving.preop_resident[shard={shard},worker={worker}]".format(**at)
            ).set(len(report.resident))
            self.metrics.gauge("serving.preop_resident_bytes").set(
                sum(
                    worker.cache.resident_bytes
                    for live in self.live_shards()
                    for worker in live.pool.workers
                )
            )
            # A respawned slot's process counts its evictions from zero.
            same_process = seen is not None and seen.pid == report.pid
            evicted = report.evictions - (seen.evictions if same_process else 0)
            if evicted:
                self.metrics.counter("serving.preop_evictions").inc(evicted)
                self.flight.note(
                    "preop.evict",
                    evicted=evicted,
                    resident=len(report.resident),
                    **at,
                )

    # -- drain / shutdown -----------------------------------------------------

    def drain(self, timeout: float = 60.0) -> dict[str, CaseResult]:
        """Gracefully stop every shard; every admitted case terminates.

        Busy workers finish their current scan, checkpoint the session
        through :class:`repro.persist.SessionStore` (the case's own
        checkpoint directory, or the pool's drain spool) and report
        ``drained`` results. Queued cases that never started are marked
        evicted with a ``drained before dispatch`` detail. Cases still
        running when the timeout lapses are *not* left unresolved: their
        workers are terminated and the cases surface as terminal
        ``evicted`` results carrying the worker's last flight-recorder
        dump, so every admitted case has exactly one terminal status.
        The loop is closed afterwards.
        """
        self.terminal_ids = []
        for queued in self.queue.clear():
            self._terminate(
                queued.request,
                STATUS_EVICTED,
                "drained before dispatch",
                where="drain",
                queue_seconds=queued.waited(),
            )
        deadline = time.monotonic() + timeout
        for shard in self.live_shards():
            remaining = max(0.1, deadline - time.monotonic())
            for result in shard.pool.drain(timeout=remaining):
                self._record(shard, result)
            self._mirror_caches(shard)
        for shard in self.live_shards():
            for handle in list(shard.pool.busy_workers()):
                # Stragglers that missed the drain window: terminate and
                # surface a terminal eviction instead of silently
                # dropping the case — the one outcome a drain must never
                # produce.
                request = handle.busy
                handle.busy = None
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=2.0)
                self._terminate(
                    request,
                    STATUS_EVICTED,
                    f"missed drain timeout ({timeout:.1f} s); "
                    f"worker {handle.worker_id} terminated",
                    where="drain-timeout",
                    shard=shard.shard_id,
                    worker=handle.worker_id,
                    dump="drain timeout",
                )
        self.metrics.counter("serving.drains").inc()
        self._closed = True
        return self.results

    def shutdown(self) -> None:
        """Stop every shard immediately (no checkpointing)."""
        for case_id in list(self._case_spans):
            self._close_case_span(case_id, status="shutdown")
        for shard in self.shards.values():
            if shard.up:
                shard.pool.shutdown()
        self._closed = True

    # -- reporting ------------------------------------------------------------

    def summary_table(self) -> str:
        """Per-case summary (status, worker, timings, cache), fleet footer, SLOs."""
        if not self.results:
            return "(no cases served)"
        rows = []
        for case_id in sorted(self.results):
            r = self.results[case_id]
            rows.append(
                [
                    case_id,
                    r.status,
                    "-" if r.worker is None else r.worker,
                    len(r.scans),
                    f"{r.queue_seconds:.2f}",
                    f"{r.service_seconds:.2f}",
                    r.attempts,
                    "hit" if r.preop_cache_hit else "miss",
                    r.detail,
                ]
            )
        table = format_table(
            [
                "case",
                "status",
                "worker",
                "scans",
                "queued (s)",
                "service (s)",
                "attempts",
                "preop",
                "detail",
            ],
            rows,
            title=self.summary_title,
        )
        live = self.live_shards()
        table += "\n  " + self.summary_footer.format(
            ok=sum(1 for r in self.results.values() if r.ok),
            n=len(self.results),
            live=len(live),
            shards=len(self.shards),
            workers=sum(s.pool.n_workers for s in live),
            deaths=sum(s.pool.deaths for s in self.shards.values()),
            shard_deaths=int(self.metrics.value("serving.shard_deaths", 0)),
            shed=int(self.metrics.value("serving.shed", 0)),
        )
        throughput = self.metrics.value("serving.throughput_scans_per_s", 0.0)
        if throughput:
            table += f" | throughput: {throughput:.3f} scans/s"
        # Lit or dark, the gateway records the SLO series from the records
        # it serves (``_record``), so the table is shown whenever it has one.
        slo = slo_summary(self.metrics)
        if slo["series"]:
            table += "\n\n" + render_slo_summary(slo)
        return table
