"""Process-pool of session workers: GIL-free concurrent surgical cases.

Each worker is a separate OS process hosting :class:`repro.core.SurgicalSession`
instances, so concurrent FEM solves run truly in parallel. A worker
keeps a **checksum-keyed preoperative-model cache**: cases whose
(preoperative volumes, config) BLAKE2b key matches a model already
prepared by that worker skip the whole preoperative rebuild —
localization models, meshing, assembly, Dirichlet elimination,
preconditioner factorization — and take the cached model as it is:
no solve reads what an earlier one left in the solve context, so
their results stay bit-identical to a from-scratch session. The cache is an LRU of
at most :data:`PREOP_CACHE_MODELS` models, so a worker's memory stops growing
with the patients it has served, and every result message tells the
parent which models are resident *now*: the scheduler's affinity and
single-flight decisions read that report, not a guess.

Reliability contract:

* **Durable cases** (``checkpoint_dir`` set) are journaled through
  :class:`repro.persist.SessionStore`; a worker death mid-case leaves
  the checkpoint resumable, and re-dispatching the same request makes
  the replacement worker *resume* it — committed scans come back from
  the journal (bit-exact, ``restored=True``), only the remainder is
  recomputed.
* **Graceful drain**: setting the pool's drain event makes busy workers
  finish their current scan, checkpoint the in-flight session (to the
  case's own checkpoint directory, or the pool's drain spool), and
  report a ``drained`` result before exiting.
* **Death detection** is the parent's job: :meth:`SessionWorkerPool.reap`
  finds exited workers, respawns their slot (fresh process, empty
  cache) and hands the interrupted request back to the caller for
  re-admission.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.serving.protocol import (
    STATUS_COMPLETED,
    STATUS_DEGRADED,
    STATUS_DRAINED,
    STATUS_FAILED,
    CaseRequest,
    CaseResult,
    outcome_from_result,
)
from repro.util import ValidationError
from repro.util.memory import LRUStore

#: Patient models a worker keeps. Counted in models because a
#: byte budget either never bites on small models or thrashes on
#: paper-sized ones (DESIGN.md, "What a patient model holds").
PREOP_CACHE_MODELS = 4


@dataclass(frozen=True)
class PreopCacheReport:
    """A worker's patient-model cache as of the message carrying this."""

    #: Resident ``preop_key``s, least recently used first.
    resident: tuple[str, ...] = ()
    #: Models evicted over the worker's lifetime.
    evictions: int = 0
    #: :meth:`repro.core.PreoperativeModel.nbytes` summed over ``resident``.
    resident_bytes: int = 0
    #: The reporting process: a report that outlived its worker (the slot
    #: was respawned while the message was in flight) describes a cache
    #: that no longer exists, and the parent drops it.
    pid: int = 0


def _build_pipeline(config, telemetry=None):
    """A fresh pipeline for one case, wired to the case's telemetry.

    Without a telemetry harness the pipeline runs dark (no tracer, no
    budget monitor, no metrics) — the pre-telemetry behavior.
    """
    from repro.core.config import PipelineConfig
    from repro.core.pipeline import IntraoperativePipeline

    kwargs = {}
    if telemetry is not None:
        kwargs = {
            "tracer": telemetry.tracer,
            "budget": telemetry.monitor,
            "metrics": telemetry.metrics,
        }
    return IntraoperativePipeline(
        config=config if config is not None else PipelineConfig(), **kwargs
    )


def _resume_case(
    request: CaseRequest, worker_id: int, telemetry=None
) -> tuple[object, list, float]:
    """Reopen a case's checkpoint; returns (session, outcomes, preop_s).

    The manifest is authoritative for the numeric configuration (the
    committed scans were produced under it); the request's fault plan
    and resilience policy — never serialized — are grafted back on, so
    journaled crash faults are marked fired instead of re-firing.
    """
    from repro.core.config import PipelineConfig
    from repro.core.session import SurgicalSession
    from repro.persist.checkpoint import config_from_manifest
    from repro.persist.store import SessionStore

    store = SessionStore.open(request.checkpoint_dir)
    config = config_from_manifest(store.manifest.get("config", {}))
    base = request.config if request.config is not None else PipelineConfig()
    config.fault_plan = base.fault_plan
    config.resilience = base.resilience
    t0 = time.perf_counter()
    session = SurgicalSession.resume(
        _build_pipeline(config, telemetry), request.checkpoint_dir
    )
    preop_seconds = time.perf_counter() - t0
    outcomes = [
        outcome_from_result(i, result) for i, result in enumerate(session.history)
    ]
    return session, outcomes, preop_seconds


def _apply_shed(request: CaseRequest) -> None:
    """Apply a gateway-stamped load-shed floor to the worker's config copy.

    Each dispatch pickles its own ``CaseRequest``, so mutating the config
    here cannot leak into other cases that shared the original config
    object in the submitting process. The memoized ``preop_key`` was
    computed at admission and travels through the pickle, so routing and
    cache keys are unaffected by the shed.
    """
    if request.shed_level is None:
        return
    from repro.core.config import PipelineConfig
    from repro.resilience.policy import DegradationLevel

    if request.config is None:
        request.config = PipelineConfig()
    policy = request.config.resilience
    policy.min_degradation = DegradationLevel(
        min(int(request.shed_level), int(policy.max_degradation))
    )


def _case_telemetry(request: CaseRequest, worker_id: int):
    """The case's telemetry harness, or ``None`` for a dark request."""
    if request.trace_context is None:
        return None
    from repro.obs.telemetry import CaseTelemetry

    return CaseTelemetry(request.trace_context, worker=worker_id)


def _flight_spool(request: CaseRequest, worker_id: int) -> Path | None:
    if request.flight_dir is None:
        return None
    return Path(request.flight_dir) / f"worker-{worker_id}.json"


def _spool_flight(telemetry, spool: Path | None, reason: str, **context) -> str | None:
    """Persist the worker's flight ring (atomic; survives a later SIGKILL)."""
    if telemetry is None or spool is None:
        return None
    telemetry.flight.dump(spool, reason, context=context)
    return str(spool)


def _serve_case(
    request: CaseRequest,
    preop_cache: LRUStore,
    drain_event,
    drain_dir: str,
    worker_id: int,
    beat=None,
) -> CaseResult:
    """Run one case to completion (or drain) inside a worker process.

    When the request carries a trace context the whole case runs inside
    a :class:`repro.obs.telemetry.CaseTelemetry` harness: pipeline spans
    and metrics are collected locally and shipped back on the result as
    a telemetry frame, and the flight-recorder ring is persisted to the
    request's ``flight_dir`` after every scan — so a worker killed
    mid-case still leaves its last completed ring on disk.
    """
    from contextlib import nullcontext

    from repro.core.session import SurgicalSession

    telemetry = _case_telemetry(request, worker_id)
    spool = _flight_spool(request, worker_id)
    flight_dump = None

    def finish(result: CaseResult, error: str | None = None) -> CaseResult:
        if telemetry is not None:
            result.telemetry = telemetry.frame(error=error)
        result.flight_dump = flight_dump
        return result

    t_start = time.perf_counter()
    outcomes = []
    preop_seconds = 0.0
    cache_hit = False
    checkpoint = request.checkpoint_dir
    try:
        _apply_shed(request)
        with telemetry if telemetry is not None else nullcontext():
            if telemetry is not None:
                telemetry.flight.note(
                    "case.start",
                    case_id=request.case_id,
                    worker=worker_id,
                    n_scans=request.n_scans,
                )
            resuming = (
                checkpoint is not None
                and (Path(checkpoint) / "MANIFEST.json").is_file()
            )
            if resuming:
                session, outcomes, preop_seconds = _resume_case(
                    request, worker_id, telemetry
                )
                if telemetry is not None:
                    telemetry.flight.note(
                        "case.resume",
                        case_id=request.case_id,
                        restored_scans=len(outcomes),
                    )
            else:
                key = request.preop_key()
                preop = preop_cache.get(key)
                cache_hit = preop is not None
                pipeline = _build_pipeline(request.config, telemetry)
                if not cache_hit:
                    t0 = time.perf_counter()
                    preop = pipeline.prepare_preoperative(
                        request.preop_mri, request.preop_labels
                    )
                    preop_seconds = time.perf_counter() - t0
                    preop_cache.put(key, preop)
                session = SurgicalSession.begin(
                    pipeline,
                    request.preop_mri,
                    request.preop_labels,
                    checkpoint_dir=checkpoint,
                    app={"case_id": request.case_id},
                    preop=preop,
                )
            for index in range(session.n_scans, request.n_scans):
                if beat is not None:
                    # Liveness beat between scans: a wedged worker stops
                    # beating, which is how the parent tells "long solve"
                    # from "hung" without killing legitimate work.
                    beat()
                if drain_event.is_set():
                    root = session.checkpoint(
                        None
                        if session.store is not None
                        else str(Path(drain_dir) / request.case_id)
                    )
                    flight_dump = _spool_flight(
                        telemetry, spool, "drain", case_id=request.case_id, scan=index
                    )
                    return finish(
                        CaseResult(
                            case_id=request.case_id,
                            status=STATUS_DRAINED,
                            detail=f"drained after scan {index - 1} -> {root}",
                            worker=worker_id,
                            scans=outcomes,
                            service_seconds=time.perf_counter() - t_start,
                            preop_cache_hit=cache_hit,
                            preop_seconds=preop_seconds,
                            checkpoint=str(root),
                        )
                    )
                result = session.process(request.scans[index])
                outcomes.append(outcome_from_result(index, result))
                flight_dump = _spool_flight(
                    telemetry, spool, "scan", case_id=request.case_id, scan=index
                )
            # Healthy scans on the resilient path still carry the
            # "full-fem" label; only deeper rungs count as degraded.
            degraded = sorted(
                {
                    o.degradation
                    for o in outcomes
                    if o.degradation not in (None, "full-fem")
                }
            )
            return finish(
                CaseResult(
                    case_id=request.case_id,
                    status=STATUS_DEGRADED if degraded else STATUS_COMPLETED,
                    detail="ok" if not degraded else "degraded: " + ", ".join(degraded),
                    worker=worker_id,
                    scans=outcomes,
                    service_seconds=time.perf_counter() - t_start,
                    preop_cache_hit=cache_hit,
                    preop_seconds=preop_seconds,
                    checkpoint=checkpoint,
                )
            )
    except Exception as exc:  # noqa: BLE001 - the boundary must not leak
        detail = f"{type(exc).__name__}: {exc}"
        if telemetry is not None:
            telemetry.flight.note(
                "case.fault", case_id=request.case_id, error=detail
            )
        dumped = _spool_flight(
            telemetry, spool, "fault", case_id=request.case_id, error=detail
        )
        flight_dump = dumped if dumped is not None else flight_dump
        return finish(
            CaseResult(
                case_id=request.case_id,
                status=STATUS_FAILED,
                detail=detail,
                worker=worker_id,
                scans=outcomes,
                service_seconds=time.perf_counter() - t_start,
                preop_cache_hit=cache_hit,
                preop_seconds=preop_seconds,
                checkpoint=checkpoint,
                error_traceback=traceback.format_exc(limit=8),
            ),
            error=detail,
        )


def _worker_main(
    worker_id: int,
    task_queue,
    result_queue,
    drain_event,
    drain_dir,
    heartbeat_s: float = 0.5,
):
    """Worker process entry point: serve cases until told to stop.

    Idle workers emit a heartbeat on the result queue every
    ``heartbeat_s``; busy workers beat between scans (see
    :func:`_serve_case`), so a stalled heartbeat on a busy worker means
    wedged, not working. Two injectable degradations support chaos
    drills: ``("hang",)`` wedges the worker (alive, silent, never
    returns), ``("slow", seconds)`` adds per-case latency.

    Every ``("result", ...)`` message ends with a
    :class:`PreopCacheReport`: the model built for the case may have
    pushed older ones out, and the parent schedules on what is resident.
    """
    # A terminal Ctrl-C signals the whole foreground process group;
    # drain is the parent's job, so workers ignore SIGINT and wait for
    # the explicit "stop" message (SIGKILL-based chaos is unaffected).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    preop_cache = LRUStore(PREOP_CACHE_MODELS)
    report = PreopCacheReport()
    slow_s = 0.0

    def beat() -> None:
        result_queue.put(("heartbeat", worker_id, time.time()))

    def cache_report(last: PreopCacheReport) -> PreopCacheReport:
        resident = tuple(preop_cache.keys())
        nbytes = last.resident_bytes
        if set(resident) != set(last.resident):  # sized when it changes
            nbytes = sum(model.nbytes() for model in preop_cache.values())
        return PreopCacheReport(resident, preop_cache.evictions, nbytes, os.getpid())

    while True:
        try:
            message = task_queue.get(timeout=heartbeat_s)
        except queue_module.Empty:
            beat()
            continue
        kind = message[0]
        if kind == "stop":
            return
        if kind == "hang":
            # Injected fault: the worker stays alive but goes silent —
            # only detectable by heartbeat timeout, never by reap.
            while True:
                time.sleep(3600.0)
        if kind == "slow":
            slow_s = float(message[1])
            continue
        if kind == "case":
            if slow_s > 0.0:
                time.sleep(slow_s)
            beat()
            request = message[1]
            served = _serve_case(
                request, preop_cache, drain_event, drain_dir, worker_id, beat=beat
            )
            report = cache_report(report)
            result_queue.put(("result", worker_id, served, report))


@dataclass
class WorkerHandle:
    """Parent-side view of one worker process."""

    worker_id: int
    process: object = field(repr=False)
    task_queue: object = field(repr=False)
    busy: CaseRequest | None = None
    busy_since: float | None = None
    busy_deadline: float | None = None
    dispatched: int = 0
    #: Patient models resident on the worker when it next reports: what
    #: its last result message reported, with the model it is building
    #: now in and the one that build will evict out.
    cached_keys: set = field(default_factory=set)
    #: The worker's last :class:`PreopCacheReport`.
    cache: PreopCacheReport = field(default_factory=PreopCacheReport)

    @property
    def idle(self) -> bool:
        return self.busy is None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class SessionWorkerPool:
    """A fixed-size pool of session worker processes.

    Parameters
    ----------
    n_workers:
        Worker process count (each a separate interpreter — solves run
        GIL-free).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        (instant worker spawn, inherits the parent's imports) and falls
        back to the platform default elsewhere.
    drain_dir:
        Spool directory where drained non-durable cases are
        checkpointed; a temp directory is created when omitted.
    """

    #: Extra respawn-backoff fraction randomized (deterministically) per
    #: slot, so a correlated crash of several workers does not respawn
    #: them in lockstep.
    RESPAWN_JITTER = 0.25

    def __init__(
        self,
        n_workers: int,
        start_method: str | None = None,
        drain_dir: str | None = None,
        heartbeat_s: float = 0.5,
        respawn_base_s: float = 0.5,
        respawn_cap_s: float = 8.0,
    ):
        if n_workers < 1:
            raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.drain_dir = (
            drain_dir
            if drain_dir is not None
            else tempfile.mkdtemp(prefix="repro-serving-drain-")
        )
        self.heartbeat_s = float(heartbeat_s)
        self.respawn_base_s = float(respawn_base_s)
        self.respawn_cap_s = float(respawn_cap_s)
        self.result_queue = self._ctx.Queue()
        self.drain_event = self._ctx.Event()
        self.workers: list[WorkerHandle] = []
        #: worker_id -> parent-clock time of the last heartbeat or result.
        self.heartbeats: dict[int, float] = {}
        self.deaths = 0
        self.respawns = 0
        self.dead = False
        self._crash_counts: dict[int, int] = {}
        self._respawn_due: dict[int, float] = {}
        for worker_id in range(n_workers):
            self.workers.append(self._spawn(worker_id))

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, worker_id: int) -> WorkerHandle:
        task_queue = self._ctx.Queue()
        # Never join this queue's feeder thread at interpreter exit: a
        # worker killed or wedged mid-case (chaos drills, deadline
        # termination) leaves the pipe holding an unconsumed request, and
        # the default exit-time join would deadlock the parent forever.
        task_queue.cancel_join_thread()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker_id,
                task_queue,
                self.result_queue,
                self.drain_event,
                self.drain_dir,
                self.heartbeat_s,
            ),
            daemon=True,
            name=f"repro-serving-worker-{worker_id}",
        )
        process.start()
        self.heartbeats[worker_id] = time.monotonic()
        return WorkerHandle(worker_id=worker_id, process=process, task_queue=task_queue)

    def _handle(self, worker_id: int) -> WorkerHandle | None:
        for handle in self.workers:
            if handle.worker_id == worker_id:
                return handle
        return None

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def idle_workers(self) -> list[WorkerHandle]:
        return [w for w in self.workers if w.idle and w.alive]

    def busy_workers(self) -> list[WorkerHandle]:
        return [w for w in self.workers if not w.idle]

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, handle: WorkerHandle, request: CaseRequest) -> None:
        """Hand a case to an idle worker."""
        if not handle.idle:
            raise ValidationError(
                f"worker {handle.worker_id} is already serving "
                f"{handle.busy.case_id!r}"
            )
        handle.busy = request
        handle.busy_since = time.monotonic()
        handle.busy_deadline = None
        handle.dispatched += 1
        key = request.preop_key()
        if key not in handle.cached_keys:
            # The worker will build this model, and a full cache drops its
            # coldest one to keep it: say so now, or a case would be held
            # for a model that is gone by the time this worker reports.
            resident = handle.cache.resident
            if len(resident) >= PREOP_CACHE_MODELS:
                handle.cached_keys.discard(resident[0])
            handle.cached_keys.add(key)
        self.heartbeats[handle.worker_id] = time.monotonic()
        handle.task_queue.put(("case", request))

    def poll_results(self, timeout: float = 0.05) -> list[CaseResult]:
        """Collect every finished case currently in the result queue.

        Blocks up to ``timeout`` seconds for the first message, then
        drains without blocking. Marks the producing workers idle,
        absorbs heartbeat messages into :attr:`heartbeats`, resets the
        producer's crash count (a worker that delivers results is not
        crash-looping), and sets its ``cache`` / ``cached_keys`` to the
        resident models the message reports.
        """
        results = []
        block = timeout > 0
        while True:
            try:
                message = self.result_queue.get(
                    block=block, timeout=timeout if block else None
                )
            except queue_module.Empty:
                break
            block = False
            tag, worker_id = message[0], message[1]
            self.heartbeats[worker_id] = time.monotonic()
            if tag == "heartbeat":
                continue
            handle = self._handle(worker_id)
            if handle is not None:
                handle.busy = None
                handle.busy_since = None
                handle.busy_deadline = None
                report = message[3]
                if report.pid == handle.process.pid:
                    handle.cache = report
                    handle.cached_keys = set(report.resident)
            self._crash_counts.pop(worker_id, None)
            results.append(message[2])
        return results

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (``VmHWM``) of the live workers, in MB.

        The sum, not the largest: how cases split between workers varies
        from run to run, their total does not. 0.0 without ``/proc``.
        """
        total_kb = 0
        for handle in self.workers:
            try:
                status = Path(f"/proc/{handle.process.pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    # -- failure handling ----------------------------------------------------

    def _backoff_delay(self, worker_id: int, crashes: int) -> float:
        """Respawn delay for the ``crashes``-th consecutive crash (>= 2)."""
        delay = min(self.respawn_cap_s, self.respawn_base_s * 2.0 ** (crashes - 2))
        # Deterministic jitter: cheap hash of (slot, crash ordinal), no
        # RNG state to carry — the same drill always schedules the same
        # respawn times.
        frac = ((worker_id * 2654435761 + crashes * 40503) % 997) / 997.0
        return delay * (1.0 + self.RESPAWN_JITTER * frac)

    def reap(self) -> list[tuple[int, CaseRequest | None]]:
        """Find dead workers, return interrupted work, schedule respawns.

        Call after :meth:`poll_results` (a worker that delivered its
        result and then died loses nothing). Each entry is
        ``(worker_id, request)`` where ``request`` is the case the
        worker died serving (``None`` for an idle death).

        The first crash of a slot respawns immediately (fast recovery for
        the common isolated death); consecutive crashes of the same slot
        back off exponentially with jitter, capped at ``respawn_cap_s``,
        so a crash-looping worker cannot spin the control loop. Deferred
        respawns happen in :meth:`maintain`. Respawned workers start with
        an empty preop cache.
        """
        interrupted = []
        now = time.monotonic()
        for handle in list(self.workers):
            if handle.alive:
                continue
            self.deaths += 1
            interrupted.append((handle.worker_id, handle.busy))
            handle.process.join(timeout=1.0)
            self.workers.remove(handle)
            self.heartbeats.pop(handle.worker_id, None)
            crashes = self._crash_counts.get(handle.worker_id, 0) + 1
            self._crash_counts[handle.worker_id] = crashes
            if crashes <= 1:
                self.workers.append(self._spawn(handle.worker_id))
                self.respawns += 1
            else:
                self._respawn_due[handle.worker_id] = now + self._backoff_delay(
                    handle.worker_id, crashes
                )
        return interrupted

    def maintain(self) -> list[int]:
        """Respawn backed-off slots whose delay has elapsed.

        Returns the respawned worker ids; call once per control-loop
        tick.
        """
        now = time.monotonic()
        respawned = []
        for worker_id, due in sorted(self._respawn_due.items()):
            if now < due:
                continue
            del self._respawn_due[worker_id]
            self.workers.append(self._spawn(worker_id))
            self.respawns += 1
            respawned.append(worker_id)
        return respawned

    def pending_respawns(self) -> int:
        """Dead slots still waiting out their respawn backoff."""
        return len(self._respawn_due)

    def stale_workers(self, timeout_s: float) -> list[WorkerHandle]:
        """Busy, alive workers silent for longer than ``timeout_s``.

        Workers beat between scans and while idle; a busy worker that
        stopped beating past any plausible scan time is wedged (e.g. an
        injected ``hang-worker`` fault), not slow.
        """
        now = time.monotonic()
        return [
            w
            for w in self.workers
            if not w.idle
            and w.alive
            and now - self.heartbeats.get(w.worker_id, now) > timeout_s
        ]

    def terminate_worker(self, worker_id: int) -> CaseRequest | None:
        """Forcibly kill one worker (deadline enforcement); respawn its slot.

        Returns the case it was serving, if any. The caller decides what
        to record (the server marks it evicted, not re-admitted).
        """
        handle = self._handle(worker_id)
        if handle is None:
            raise ValidationError(f"no worker with id {worker_id}")
        request = handle.busy
        if handle.alive:
            handle.process.terminate()
            handle.process.join(timeout=5.0)
        self.workers.remove(handle)
        self.workers.append(self._spawn(worker_id))
        self.respawns += 1
        return request

    # -- chaos injection ------------------------------------------------------

    def inject_hang(self, worker_id: int | None = None) -> int | None:
        """Wedge one worker (``hang-worker`` drill): alive but silent.

        Targets ``worker_id``, else the first idle worker, else the
        first worker outright; the wedge takes effect when the worker
        next reads its task queue (for a busy worker: right before its
        *next* case, which then never returns). Returns the wedged
        worker's id, or ``None`` if no worker qualified.
        """
        if worker_id is None:
            if not self.workers:
                return None
            idle = self.idle_workers()
            handle = idle[0] if idle else self.workers[0]
        else:
            handle = self._handle(worker_id)
            if handle is None:
                return None
        handle.task_queue.put(("hang",))
        return handle.worker_id

    def inject_slow(self, delay_s: float) -> None:
        """Add per-case latency to every worker (``slow-shard`` drill)."""
        for handle in self.workers:
            handle.task_queue.put(("slow", float(delay_s)))

    def kill(self) -> list[CaseRequest]:
        """Kill the whole pool abruptly (shard-death drill).

        SIGKILLs every worker — no drain, no checkpointing beyond what
        the durable layer already journaled — and marks the pool
        :attr:`dead`. Returns the requests that were in flight so a
        gateway can re-admit them elsewhere. A dead pool never respawns.
        """
        interrupted = [w.busy for w in self.workers if w.busy is not None]
        for handle in self.workers:
            if handle.alive:
                handle.process.kill()
        for handle in self.workers:
            handle.process.join(timeout=2.0)
        self.workers = []
        self.heartbeats.clear()
        self._respawn_due.clear()
        self.dead = True
        return interrupted

    # -- drain / shutdown ----------------------------------------------------

    def drain(self, timeout: float = 60.0) -> list[CaseResult]:
        """Graceful stop: checkpoint in-flight cases, collect their results.

        Sets the drain event (busy workers finish the current scan,
        checkpoint, report ``drained``), sends every worker its stop
        sentinel, and gathers the final results until all workers exit
        or ``timeout`` elapses.
        """
        self.drain_event.set()
        for handle in self.workers:
            handle.task_queue.put(("stop",))
        results = []
        deadline = time.monotonic() + timeout
        # Only live busy workers can still deliver; a dead or wedged one
        # never will, and waiting on it would burn the whole timeout.
        while (
            any(not w.idle and w.alive for w in self.workers)
            and time.monotonic() < deadline
        ):
            results.extend(self.poll_results(timeout=0.1))
        for handle in self.workers:
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
        return results

    def shutdown(self) -> None:
        """Stop all workers immediately (no checkpointing)."""
        for handle in self.workers:
            if handle.alive:
                handle.task_queue.put(("stop",))
        for handle in self.workers:
            handle.process.join(timeout=2.0)
            if handle.alive:
                handle.process.terminate()
                handle.process.join(timeout=2.0)
