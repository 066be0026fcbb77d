"""Fault-tolerant asyncio network front-end for the sharded tier.

This module puts the :class:`repro.serving.ShardGateway` behind a real
socket so the scanner host, the compute fleet, and the surgical
workstation can be separate machines — the deployment the paper's
intraoperative pipeline assumes. It has two halves:

**The wire format** — every message is one length-prefixed frame::

    magic   4 B   b"RPW1"
    type    1 B   message type (T_PING .. T_ERROR)
    flags   1 B   reserved (0)
    length  4 B   big-endian payload byte count
    payload       pickled dict
    digest  16 B  BLAKE2b over (type | flags | length | payload)

The trailing digest makes torn writes and bit corruption *detectable*:
a frame that fails its checksum, or whose stream ends before ``length``
bytes arrive, raises :class:`FrameError` — never a silently wrong
result. Payloads are pickled (this transport is for a trusted OR/
cluster network, like the multiprocessing tier it extends, not the
open internet).

Volumes do not re-pickle per hop. The preoperative acquisition uploads
once per patient, content-addressed by the existing ``preop_key``
(``T_PREOP_CHECK`` / ``T_PREOP_PUT``); intraoperative scans then stream
as **deltas**: the scan's raw bytes XORed against the stored preop MRI
bytes and zlib-compressed (:func:`encode_volume`). XOR-of-bytes is
bit-exact for any dtype — unlike float subtraction — and intraoperative
scans differ from the preop only where tissue moved, so the delta
compresses far better than the volume — when it compresses at all: a
stream whose head does not shrink (noise-bearing float intensities)
travels as its ``raw`` bytes. Every encoded volume carries its BLAKE2b
checksum, verified after decode.

**The server** — :class:`NetworkFrontEnd` owns an asyncio listener and
pumps the (single-threaded, blocking) gateway from one executor thread:
submissions decoded on the event loop are queued to an inbox, and each
pump cycle hands the whole batch plus one :meth:`ShardGateway.tick` to
the executor, so all gateway state is only ever touched from that one
thread. The front-end adds the network-boundary duties the in-process
tier never needed:

* **Idempotency** — every submission carries a client key; live
  duplicates collapse onto the running execution, terminal duplicates
  replay the recorded result, and durable cases are additionally
  journal-gated (:func:`repro.persist.completed_records`): a duplicate
  delivery of a fully committed case is answered from the journal,
  never solved twice.
* **Health probes** — ``T_PING`` answers liveness and readiness from
  the gateway's worker classification (``idle`` / ``serving`` /
  ``building-preop`` / ``wedged``), plus pump staleness and drain
  state, so a load balancer can tell "building a patient model" from
  "wedged" instead of killing a warming server.
* **Clean drain on SIGTERM** — stop accepting, finish what is pending,
  checkpoint the rest via :meth:`ShardGateway.drain`, then close.
* **Wire chaos** — a :class:`repro.resilience.ServingFaultPlan` with
  :data:`repro.resilience.faults.WIRE_FAULTS` kinds injects connection
  resets mid-frame, truncated frames, delayed ACKs, duplicate
  deliveries, and partition-then-heal outages, keyed by submit ordinal
  so soak drills are deterministic.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import pickle
import signal
import struct
import threading
import time
import zlib
from collections import deque

import numpy as np

from repro.imaging.volume import ImageVolume
from repro.obs.metrics import MetricsRegistry
from repro.persist.store import completed_records
from repro.resilience.faults import WIRE_FAULTS, ServingFaultPlan
from repro.serving.gateway import ShardGateway
from repro.serving.protocol import (
    STATUS_COMPLETED,
    STATUS_DEGRADED,
    STATUS_REJECTED,
    CaseRequest,
    CaseResult,
    ScanOutcome,
)
from repro.util import ValidationError
from repro.util.atomicio import checksum_array
from repro.util.memory import LRUStore

# -- frame format -------------------------------------------------------------

MAGIC = b"RPW1"
HEADER = struct.Struct(">4sBBI")  # magic | type | flags | payload length
DIGEST_SIZE = 16
#: Upper bound on a single frame's payload (guards the length prefix:
#: a corrupted header cannot make the reader allocate gigabytes).
MAX_FRAME_BYTES = 256 * 1024 * 1024
#: Uploaded preoperative volume pairs the front-end keeps (an LRU): a
#: submit needs its patient's pair only to decode — the request carries
#: the volumes from there — and a client whose upload was dropped is told
#: ``need_preop`` and uploads again.
PREOP_STORE_PATIENTS = 8
#: A volume is zlib-compressed only when the head of its byte stream
#: shrinks below this share of itself; label maps shrink 24x, noisy float
#: intensities to 0.95 (3 ms per 72 KiB scan for 5 %).
CODEC_PROBE_BYTES = 8192
CODEC_PROBE_RATIO = 0.9

T_PING = 1  #: health probe -> T_PONG
T_PONG = 2
T_PREOP_CHECK = 3  #: which preop keys does the server hold? -> T_PREOP_HAVE
T_PREOP_HAVE = 4
T_PREOP_PUT = 5  #: content-addressed preop upload -> T_PREOP_ACK
T_PREOP_ACK = 6
T_SUBMIT = 7  #: case submission -> T_ADMIT (result follows as T_RESULT)
T_ADMIT = 8
T_RESULT = 9  #: terminal CaseResult push
T_ERROR = 10  #: transport-level failure report

FRAME_TYPES = (
    T_PING,
    T_PONG,
    T_PREOP_CHECK,
    T_PREOP_HAVE,
    T_PREOP_PUT,
    T_PREOP_ACK,
    T_SUBMIT,
    T_ADMIT,
    T_RESULT,
    T_ERROR,
)


class FrameError(ValidationError):
    """A wire frame that cannot be trusted: bad magic, oversized length,
    truncated body, or checksum mismatch."""


def _frame_digest(header: bytes, payload: bytes) -> bytes:
    return hashlib.blake2b(
        header[len(MAGIC):] + payload, digest_size=DIGEST_SIZE
    ).digest()


def encode_frame(ftype: int, payload_obj, flags: int = 0) -> bytes:
    """One complete wire frame for ``payload_obj`` (pickled)."""
    if ftype not in FRAME_TYPES:
        raise FrameError(
            f"unknown frame type {ftype} (valid: {sorted(FRAME_TYPES)})"
        )
    payload = pickle.dumps(payload_obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload {len(payload)} bytes exceeds cap {MAX_FRAME_BYTES}"
        )
    header = HEADER.pack(MAGIC, ftype, flags, len(payload))
    return header + payload + _frame_digest(header, payload)


def parse_header(header: bytes, max_bytes: int = MAX_FRAME_BYTES) -> tuple[int, int, int]:
    """Validate a frame header; returns ``(type, flags, payload_length)``."""
    if len(header) != HEADER.size:
        raise FrameError(
            f"truncated frame header ({len(header)}/{HEADER.size} bytes)"
        )
    magic, ftype, flags, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if ftype not in FRAME_TYPES:
        raise FrameError(
            f"unknown frame type {ftype} (valid: {sorted(FRAME_TYPES)})"
        )
    if length > max_bytes:
        raise FrameError(f"frame length {length} exceeds cap {max_bytes}")
    return ftype, flags, length


def finish_frame(header: bytes, body: bytes):
    """Verify ``payload + digest`` against the header; returns the payload.

    ``body`` must be exactly ``length + DIGEST_SIZE`` bytes. A checksum
    mismatch (bit corruption, or a reader that lost frame sync) raises
    :class:`FrameError` before any unpickling happens.
    """
    _, _, length = parse_header(header)
    if len(body) != length + DIGEST_SIZE:
        raise FrameError(
            f"truncated frame body ({len(body)}/{length + DIGEST_SIZE} bytes)"
        )
    payload, digest = body[:length], body[length:]
    if digest != _frame_digest(header, payload):
        raise FrameError("frame checksum mismatch")
    return pickle.loads(payload)


def decode_frame(data: bytes, offset: int = 0):
    """Decode one frame from a byte buffer (sync path, tests).

    Returns ``(type, flags, payload_obj, end_offset)``; raises
    :class:`FrameError` if the buffer ends before the frame does
    (truncated tail) or the checksum fails.
    """
    header = bytes(data[offset:offset + HEADER.size])
    ftype, flags, length = parse_header(header)
    end = offset + HEADER.size + length + DIGEST_SIZE
    if len(data) < end:
        raise FrameError(
            f"truncated frame: buffer holds {len(data) - offset} of "
            f"{end - offset} bytes"
        )
    body = bytes(data[offset + HEADER.size:end])
    return ftype, flags, finish_frame(header, body), end


async def read_frame(reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES):
    """Read one frame from an asyncio stream.

    Returns ``(type, flags, payload_obj, frame_bytes)``. A clean EOF at
    a frame boundary propagates ``asyncio.IncompleteReadError`` with an
    empty ``partial`` (connection closed); EOF *inside* a frame raises
    :class:`FrameError` (truncated tail — e.g. the ``truncate-frame``
    chaos kind, or a torn write).
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise FrameError(
                f"truncated frame header ({len(exc.partial)}/{HEADER.size} "
                "bytes before EOF)"
            ) from exc
        raise
    ftype, flags, length = parse_header(header, max_bytes)
    try:
        body = await reader.readexactly(length + DIGEST_SIZE)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"truncated frame: expected {length + DIGEST_SIZE} body bytes, "
            f"got {len(exc.partial)} before EOF"
        ) from exc
    return ftype, flags, finish_frame(header, body), HEADER.size + len(body)


# -- volume / request codecs --------------------------------------------------


def encode_volume(volume: ImageVolume, reference: ImageVolume | None = None) -> dict:
    """Encode a volume for the wire, delta-compressed when that pays.

    With a ``reference`` of identical dtype and shape (the stored preop
    MRI), the raw bytes are XORed against the reference's and the XOR
    stream zlib-compressed (``xor-zlib``) — bit-exact for any dtype and
    small wherever the scan matches the preop. Otherwise plain ``zlib``.
    Either way only when the stream compresses: float intensities that
    carry noise shrink ~5 % for milliseconds of zlib, so when the first
    :data:`CODEC_PROBE_BYTES` do not, the volume's own bytes go as ``raw``.
    The entry carries the array's BLAKE2b checksum, verified on decode.
    """
    data = np.ascontiguousarray(volume.data)
    raw = data.tobytes()
    entry = {
        "dtype": str(data.dtype),
        "shape": tuple(int(s) for s in data.shape),
        "spacing": tuple(float(s) for s in volume.spacing),
        "origin": tuple(float(o) for o in volume.origin),
        "sha": checksum_array(data),
    }
    codec, stream = "zlib", raw
    if reference is not None:
        ref = np.ascontiguousarray(reference.data)
        if ref.dtype == data.dtype and ref.shape == data.shape:
            codec = "xor-zlib"
            stream = np.bitwise_xor(
                np.frombuffer(raw, dtype=np.uint8),
                np.frombuffer(ref.tobytes(), dtype=np.uint8),
            ).tobytes()
    probe = stream[:CODEC_PROBE_BYTES]
    if len(zlib.compress(probe, 6)) > CODEC_PROBE_RATIO * len(probe):
        codec, stream = "raw", raw
    else:
        stream = zlib.compress(stream, 6)
    entry["codec"] = codec
    entry["blob"] = stream
    return entry


def decode_volume(entry: dict, reference: ImageVolume | None = None) -> ImageVolume:
    """Invert :func:`encode_volume`; verifies the embedded checksum."""
    codec = entry.get("codec")
    if codec not in ("raw", "zlib", "xor-zlib"):
        raise FrameError(f"unknown volume codec {codec!r}")
    raw = entry["blob"] if codec == "raw" else zlib.decompress(entry["blob"])
    if codec == "xor-zlib":
        if reference is None:
            raise FrameError("xor-zlib volume needs its reference to decode")
        ref = np.frombuffer(
            np.ascontiguousarray(reference.data).tobytes(), dtype=np.uint8
        )
        if len(raw) != ref.size:
            raise FrameError(
                f"xor-zlib delta is {len(raw)} bytes, reference is {ref.size}"
            )
        raw = np.bitwise_xor(np.frombuffer(raw, dtype=np.uint8), ref).tobytes()
    data = (
        np.frombuffer(raw, dtype=np.dtype(entry["dtype"]))
        .reshape(entry["shape"])
        .copy()
    )
    if checksum_array(data) != entry["sha"]:
        raise FrameError("volume checksum mismatch after decode")
    return ImageVolume(data, entry["spacing"], entry["origin"])


def encode_submit(request: CaseRequest, tag=None) -> dict:
    """The ``T_SUBMIT`` payload for a case: everything but the preops.

    Scans are delta-encoded against the preop MRI; the preop volumes
    themselves travel once per patient via ``T_PREOP_PUT`` and are
    referenced here by ``preop_key`` only.
    """
    return {
        "tag": tag,
        "case_id": request.case_id,
        "preop_key": request.preop_key(),
        "config": request.config,
        "deadline_s": request.deadline_s,
        "checkpoint_dir": request.checkpoint_dir,
        "idempotency_key": request.idempotency_key or request.case_id,
        "client_enqueue_unix": request.client_enqueue_unix,
        "scans": [
            encode_volume(scan, reference=request.preop_mri)
            for scan in request.scans
        ],
    }


def decode_submit(
    payload: dict, preop: tuple[ImageVolume, ImageVolume]
) -> CaseRequest:
    """Rebuild the :class:`CaseRequest` from a ``T_SUBMIT`` payload."""
    mri, labels = preop
    return CaseRequest(
        case_id=payload["case_id"],
        preop_mri=mri,
        preop_labels=labels,
        scans=[decode_volume(entry, reference=mri) for entry in payload["scans"]],
        config=payload.get("config"),
        deadline_s=payload.get("deadline_s"),
        checkpoint_dir=payload.get("checkpoint_dir"),
        client_enqueue_unix=payload.get("client_enqueue_unix"),
        idempotency_key=payload.get("idempotency_key"),
    )


def result_from_journal(case_id: str, checkpoint_dir: str, records) -> CaseResult:
    """A replayed :class:`CaseResult` for a fully committed durable case.

    The exactly-once answer to a duplicate delivery: every scan comes
    back ``restored=True`` with the journal's committed checksums —
    bit-exact what the original execution produced — without touching a
    worker.
    """
    scans = [
        ScanOutcome(
            scan=record.scan,
            seconds=0.0,
            nodal_sha=record.nodal_sha,
            grid_sha=record.grid_sha,
            solver_iterations=record.solver_iterations,
            cache_hit=record.cache_hit,
            degradation=record.degradation,
            restored=True,
        )
        for record in records
    ]
    # Mirror the worker's status rule: the "full-fem" label is the
    # escalated-but-full-quality result; only deeper rungs degrade.
    status = (
        STATUS_DEGRADED
        if any(
            record.degradation not in (None, "full-fem") for record in records
        )
        else STATUS_COMPLETED
    )
    return CaseResult(
        case_id=case_id,
        status=status,
        detail="replayed from journal (duplicate delivery)",
        scans=scans,
        preop_cache_hit=True,
        checkpoint=checkpoint_dir,
    )


# -- the server ---------------------------------------------------------------


class _Conn:
    """One accepted client connection (event-loop-owned)."""

    __slots__ = ("reader", "writer", "lock", "peer")

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.lock = asyncio.Lock()  # serialize frame writes (ACKs vs pushes)
        peername = writer.get_extra_info("peername")
        self.peer = "?" if peername is None else f"{peername[0]}:{peername[1]}"

    def abort(self) -> None:
        with contextlib.suppress(Exception):
            self.writer.transport.abort()


class NetworkFrontEnd:
    """Asyncio socket front-end for a :class:`ShardGateway`.

    All gateway interaction happens on one executor thread (the *pump*):
    each cycle submits the inbox batch and runs one gateway tick, then
    the event loop publishes any newly terminal results to subscribed
    connections. The event loop itself only ever frames/deframes bytes
    and touches front-end-owned dicts — the gateway is never shared
    across threads.

    Parameters
    ----------
    gateway:
        The sharded gateway to front. Its metrics registry is reused,
        so ``net.*`` series land in the same merged telemetry bundle.
    host / port:
        Listen address; port 0 picks a free port (read :attr:`port`
        after :meth:`start`).
    wire_faults:
        Optional :class:`repro.resilience.ServingFaultPlan`; only its
        :data:`~repro.resilience.faults.WIRE_FAULTS` kinds are consumed
        here (by submit ordinal) — gateway kinds stay for the gateway.
    poll_seconds:
        Gateway poll per pump cycle (the tick's bounded block).
    drain_timeout_s:
        Budget for a SIGTERM drain: pending work gets this long to
        finish before the gateway drain checkpoints the remainder.
    pump_stale_s:
        Readiness threshold on pump age: if the executor has not
        completed a cycle for this long the front-end itself counts as
        wedged and readiness goes false.
    """

    def __init__(
        self,
        gateway: ShardGateway,
        host: str = "127.0.0.1",
        port: int = 0,
        wire_faults: ServingFaultPlan | None = None,
        poll_seconds: float = 0.02,
        pump_idle_s: float = 0.02,
        drain_timeout_s: float = 30.0,
        pump_stale_s: float = 5.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        self.gateway = gateway
        self.metrics: MetricsRegistry = gateway.metrics
        self.host = host
        self.port = int(port)
        self.wire_faults = wire_faults
        self.poll_seconds = float(poll_seconds)
        self.pump_idle_s = float(pump_idle_s)
        self.drain_timeout_s = float(drain_timeout_s)
        self.pump_stale_s = float(pump_stale_s)
        self.max_frame_bytes = int(max_frame_bytes)
        # Event-loop-owned state.
        self._preops = LRUStore(PREOP_STORE_PATIENTS)  # key -> (mri, labels)
        self._inbox: deque[CaseRequest] = deque()
        self._pending: dict[str, str] = {}  # idempotency key -> case_id
        self._terminal: dict[str, CaseResult] = {}  # idempotency key -> result
        #: idempotency key -> executions started; the soak audits that no
        #: key ever exceeds 1 (duplicates must dedup, not re-solve).
        self.exec_counts: dict[str, int] = {}
        self._case_key: dict[str, str] = {}  # case_id -> idempotency key
        self._resolved: list[CaseResult] = []  # one pump cycle's terminals
        self._waiters: dict[str, set[_Conn]] = {}
        self._conns: set[_Conn] = set()
        self._submit_total = 0
        # Wire chaos state.
        self._partition_until = 0.0
        self._reset_next = 0
        self._truncate_next = 0
        self._dup_next = 0
        self._ack_delays: list[float] = []
        # Lifecycle.
        self._health: dict = {}
        self._health_at = 0.0
        self._draining = False
        self._drained = False
        self._pump_stop = False
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pump_task: asyncio.Task | None = None
        self._done: asyncio.Event | None = None
        self._wake: asyncio.Event | None = None  # set by a submit, ends an idle wait
        self._executor = None
        self._thread: threading.Thread | None = None
        self._thread_ready = threading.Event()
        self._thread_error: BaseException | None = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "NetworkFrontEnd":
        """Bind the listener and start the pump; returns self."""
        import concurrent.futures

        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        self._wake = asyncio.Event()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="gateway-pump"
        )
        self._server = await asyncio.start_server(
            self._on_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        # Prime the health snapshot before the pump starts so a probe
        # racing the first pump cycle doesn't read "stale (inf s)".
        self._health = await self._loop.run_in_executor(
            self._executor, self.gateway.health
        )
        self._health_at = time.monotonic()
        self._pump_task = asyncio.ensure_future(self._pump())
        return self

    async def serve(self, install_signals: bool = True) -> None:
        """Start and serve until drained (SIGTERM/SIGINT trigger drain)."""
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(sig, self.request_drain)
        self._thread_ready.set()
        await self._done.wait()

    def run_forever(self, install_signals: bool = True) -> None:
        """Blocking entry point (the ``repro serve --listen`` path)."""
        try:
            asyncio.run(self.serve(install_signals=install_signals))
        except BaseException as exc:  # surface to start_in_thread()
            self._thread_error = exc
            self._thread_ready.set()
            raise
        finally:
            if self._executor is not None:
                self._executor.shutdown(wait=False)

    def start_in_thread(self, timeout: float = 30.0) -> "NetworkFrontEnd":
        """Run the server on a background thread (tests, soak harness).

        Blocks until the listener is bound (:attr:`port` is then real).
        """
        self._thread = threading.Thread(
            target=self.run_forever,
            kwargs={"install_signals": False},
            name="net-frontend",
            daemon=True,
        )
        self._thread.start()
        if not self._thread_ready.wait(timeout):
            raise ValidationError("network front-end failed to start in time")
        if self._thread_error is not None:
            raise ValidationError(
                f"network front-end died on startup: {self._thread_error}"
            )
        return self

    def stop_from_thread(self, timeout: float = 60.0) -> None:
        """Drain and join a :meth:`start_in_thread` server."""
        if self._loop is not None and self._thread is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.request_drain)
            self._thread.join(timeout)

    def request_drain(self) -> None:
        """Begin a graceful drain (signal handler / programmatic).

        New submissions are refused (``draining``), pending cases get
        :attr:`drain_timeout_s` to reach a terminal status through the
        pump, then the gateway drains (checkpointing in-flight work) and
        the listener closes. Idempotent.
        """
        if self._draining:
            return
        self._draining = True
        self.metrics.counter("net.drain_requests").inc()
        asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        deadline = time.monotonic() + self.drain_timeout_s
        while (self._pending or self._inbox) and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        self._pump_stop = True
        self._wake.set()
        if self._pump_task is not None:
            with contextlib.suppress(Exception):
                await self._pump_task
        loop = asyncio.get_running_loop()
        if not self._drained:
            self._drained = True
            budget = max(1.0, deadline - time.monotonic())
            with contextlib.suppress(Exception):
                await loop.run_in_executor(
                    self._executor, self.gateway.drain, budget
                )
            self._resolved += [
                self.gateway.results[i] for i in self.gateway.terminal_ids
            ]
            await self._publish()
        if self._server is not None:
            self._server.close()
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        for conn in list(self._conns):
            with contextlib.suppress(Exception):
                conn.writer.close()
        if self._done is not None:
            self._done.set()

    # -- the pump -------------------------------------------------------------

    def _pump_sync(self, batch: list[CaseRequest]):
        """One executor-thread cycle: submit the batch, tick the gateway.

        The only code path that touches gateway state, so the gateway
        stays effectively single-threaded. Leaves in ``_resolved`` the
        results that became terminal in this cycle — the submits refused
        outright and the cases the tick finished, also one that then
        failed — which is all the pump has to publish.
        """
        for request in batch:
            try:
                refused = self.gateway.submit(request)
            except Exception as exc:
                refused = CaseResult(
                    case_id=request.case_id, status=STATUS_REJECTED, detail=str(exc)
                )
            if refused is not None:
                self._resolved.append(refused)
        try:
            working = self.gateway.tick(self.poll_seconds)
        finally:
            self._resolved += [
                self.gateway.results[i] for i in self.gateway.terminal_ids
            ]
        return working, self.gateway.health()

    async def _pump(self) -> None:
        loop = asyncio.get_running_loop()
        while not self._pump_stop:
            batch: list[CaseRequest] = []
            self._wake.clear()
            while self._inbox:
                batch.append(self._inbox.popleft())
            try:
                working, health = await loop.run_in_executor(
                    self._executor, self._pump_sync, batch
                )
            except Exception:
                working = None
            await self._publish()
            if working is None:
                await asyncio.sleep(self.pump_idle_s)
                continue
            self._health, self._health_at = health, time.monotonic()
            if not working and not batch and not self._inbox:
                # Idle: the tick still runs every pump_idle_s (heartbeats,
                # maintenance), but a submit does not wait the sleep out.
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(self._wake.wait(), self.pump_idle_s)

    async def _publish(self) -> None:
        """Push the results a pump cycle (or the drain) left in ``_resolved``."""
        resolved, self._resolved = self._resolved, []
        for result in resolved:
            await self._resolve(result.case_id, result)

    async def _resolve(self, case_id: str, result: CaseResult) -> None:
        key = self._case_key.get(case_id, case_id)
        self._terminal[key] = result
        self._pending.pop(key, None)
        for conn in self._waiters.pop(key, set()):
            await self._send_result(conn, key, result)

    # -- connection handling --------------------------------------------------

    def _partitioned(self) -> bool:
        return time.monotonic() < self._partition_until

    async def _on_client(self, reader, writer) -> None:
        conn = _Conn(reader, writer)
        if self._partitioned():
            self.metrics.counter("net.partition_drops").inc()
            conn.abort()
            return
        self._conns.add(conn)
        self.metrics.counter("net.connections").inc()
        try:
            while True:
                try:
                    ftype, _, payload, nbytes = await read_frame(
                        reader, self.max_frame_bytes
                    )
                except FrameError as exc:
                    # The stream can no longer be trusted (lost sync /
                    # corruption): report and drop the connection.
                    self.metrics.counter("net.frame_errors").inc()
                    with contextlib.suppress(Exception):
                        await self._send(conn, T_ERROR, {"detail": str(exc)})
                    break
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break
                self.metrics.counter("net.frames_in").inc()
                self.metrics.counter("net.bytes_in").inc(nbytes)
                if self._partitioned():
                    self.metrics.counter("net.partition_drops").inc()
                    conn.abort()
                    break
                try:
                    await self._dispatch_frame(conn, ftype, payload)
                except (ConnectionError, OSError):
                    break
        finally:
            self._conns.discard(conn)
            for subs in self._waiters.values():
                subs.discard(conn)
            with contextlib.suppress(Exception):
                writer.close()

    async def _dispatch_frame(self, conn: _Conn, ftype: int, payload) -> None:
        if not isinstance(payload, dict):
            await self._send(
                conn, T_ERROR, {"detail": "frame payload must be a dict"}
            )
            return
        if ftype == T_PING:
            await self._on_ping(conn, payload)
        elif ftype == T_PREOP_CHECK:
            await self._on_preop_check(conn, payload)
        elif ftype == T_PREOP_PUT:
            await self._on_preop_put(conn, payload)
        elif ftype == T_SUBMIT:
            await self._on_submit(conn, payload)
        else:
            await self._send(
                conn,
                T_ERROR,
                {"tag": payload.get("tag"), "detail": f"unexpected frame type {ftype}"},
            )

    # -- health ---------------------------------------------------------------

    async def _on_ping(self, conn: _Conn, payload: dict) -> None:
        snapshot = dict(self._health)
        staleness = (
            float("inf")
            if self._health_at == 0.0
            else time.monotonic() - self._health_at
        )
        stale = staleness > self.pump_stale_s
        live = bool(snapshot.get("live")) and not stale
        ready = live and bool(snapshot.get("ready")) and not self._draining
        if self._draining:
            reason = "draining"
        elif stale:
            reason = f"gateway pump stale ({staleness:.1f} s)"
        else:
            reason = snapshot.get("reason", "no health snapshot yet")
        await self._send(
            conn,
            T_PONG,
            {
                "tag": payload.get("tag"),
                "probe": payload.get("probe", "live"),
                "live": live,
                "ready": ready,
                "reason": reason,
                "draining": self._draining,
                "pump_staleness_s": round(min(staleness, 1e9), 3),
                "gateway": snapshot,
            },
        )

    # -- preop upload ---------------------------------------------------------

    async def _on_preop_check(self, conn: _Conn, payload: dict) -> None:
        keys = list(payload.get("keys", ()))
        have = [key for key in keys if key in self._preops]
        self.metrics.counter("net.preop_hits").inc(len(have))
        await self._send(
            conn, T_PREOP_HAVE, {"tag": payload.get("tag"), "have": have}
        )

    async def _on_preop_put(self, conn: _Conn, payload: dict) -> None:
        tag = payload.get("tag")
        key = payload.get("key")
        try:
            mri = decode_volume(payload["mri"])
            labels = decode_volume(payload["labels"])
        except (FrameError, KeyError, ValueError, TypeError) as exc:
            await self._send(
                conn,
                T_PREOP_ACK,
                {"tag": tag, "key": key, "stored": False, "detail": str(exc)},
            )
            return
        if key not in self._preops:
            self._preops.put(key, (mri, labels))
            self.metrics.counter("net.preop_uploads").inc()
        await self._send(
            conn, T_PREOP_ACK, {"tag": tag, "key": key, "stored": True, "detail": "ok"}
        )

    # -- submission -----------------------------------------------------------

    def _fire_wire_faults(self, ordinal: int) -> None:
        if self.wire_faults is None:
            return
        for spec in self.wire_faults.due(ordinal, kinds=WIRE_FAULTS):
            self.metrics.counter("net.faults_fired").inc()
            if spec.kind == "partition":
                self._partition_until = time.monotonic() + spec.delay_s
                self.metrics.counter("net.partitions").inc()
                for conn in list(self._conns):
                    self.metrics.counter("net.partition_drops").inc()
                    conn.abort()
            elif spec.kind == "reset-mid-frame":
                self._reset_next += 1
            elif spec.kind == "truncate-frame":
                self._truncate_next += 1
            elif spec.kind == "delay-ack":
                self._ack_delays.append(spec.delay_s)
            elif spec.kind == "dup-deliver":
                self._dup_next += 1

    async def _admit(self, conn: _Conn, tag, case_id: str, **fields) -> None:
        await self._send(conn, T_ADMIT, {"tag": tag, "case_id": case_id, **fields})

    async def _on_submit(self, conn: _Conn, payload: dict) -> None:
        ordinal = self._submit_total
        self._submit_total += 1
        self._fire_wire_faults(ordinal)
        self.metrics.counter("net.submits").inc()
        if self._partitioned():
            self.metrics.counter("net.partition_drops").inc()
            conn.abort()
            return
        if self._dup_next > 0:
            # Deliver this exact submission a second time, as if a retry
            # raced the original onto another socket read.
            self._dup_next -= 1
            self.metrics.counter("net.dups_injected").inc()
            asyncio.ensure_future(self._on_submit(conn, dict(payload)))
        if self._ack_delays:
            self.metrics.counter("net.acks_delayed").inc()
            await asyncio.sleep(self._ack_delays.pop(0))
        tag = payload.get("tag")
        try:
            case_id = payload["case_id"]
            key = payload.get("idempotency_key") or case_id
            n_scans = len(payload["scans"])
        except (KeyError, TypeError) as exc:
            await self._send(
                conn, T_ERROR, {"tag": tag, "detail": f"malformed submit: {exc!r}"}
            )
            return
        if key in self._terminal:
            self.metrics.counter("net.duplicates").inc()
            await self._admit(
                conn,
                tag,
                case_id,
                accepted=True,
                dedup="terminal",
                detail="duplicate delivery: case already terminal",
            )
            await self._send_result(conn, key, self._terminal[key])
            return
        if key in self._pending:
            self.metrics.counter("net.duplicates").inc()
            self._waiters.setdefault(key, set()).add(conn)
            await self._admit(
                conn,
                tag,
                case_id,
                accepted=True,
                dedup="pending",
                detail="duplicate delivery: execution in progress",
            )
            return
        checkpoint_dir = payload.get("checkpoint_dir")
        if checkpoint_dir:
            records = completed_records(checkpoint_dir, n_scans)
            if records is not None:
                result = result_from_journal(case_id, checkpoint_dir, records)
                self._terminal[key] = result
                self._case_key[case_id] = key
                self.metrics.counter("net.duplicates").inc()
                self.metrics.counter("net.journal_dedup").inc()
                await self._admit(
                    conn,
                    tag,
                    case_id,
                    accepted=True,
                    dedup="journal",
                    detail="duplicate delivery: replayed from journal",
                )
                await self._send_result(conn, key, result)
                return
        if self._draining:
            await self._admit(
                conn,
                tag,
                case_id,
                accepted=False,
                dedup="none",
                detail="draining: not accepting new cases",
            )
            return
        preop = self._preops.get(payload.get("preop_key"))
        if preop is None:
            await self._admit(
                conn,
                tag,
                case_id,
                accepted=False,
                need_preop=True,
                dedup="none",
                detail="preop model not uploaded for this key",
            )
            return
        try:
            request = decode_submit(payload, preop)
        except (FrameError, ValidationError, KeyError, ValueError, TypeError) as exc:
            await self._admit(
                conn,
                tag,
                case_id,
                accepted=False,
                dedup="none",
                detail=f"bad submit: {exc}",
            )
            return
        if request.preop_key() != payload.get("preop_key"):
            # The claimed key binds volumes *and* config; a mismatch
            # means the submitted config does not match what the key was
            # derived from — refusing protects the routing/cache layers.
            await self._admit(
                conn,
                tag,
                case_id,
                accepted=False,
                dedup="none",
                detail="preop key mismatch (volumes/config do not hash to key)",
            )
            return
        self._pending[key] = case_id
        self.exec_counts[key] = self.exec_counts.get(key, 0) + 1
        self._case_key[case_id] = key
        self._waiters.setdefault(key, set()).add(conn)
        self._inbox.append(request)
        self._wake.set()
        await self._admit(
            conn,
            tag,
            case_id,
            accepted=True,
            dedup="none",
            detail="queued for admission",
        )

    # -- frame writes ---------------------------------------------------------

    async def _send(self, conn: _Conn, ftype: int, payload) -> None:
        data = encode_frame(ftype, payload)
        async with conn.lock:
            conn.writer.write(data)
            await conn.writer.drain()
        self.metrics.counter("net.frames_out").inc()
        self.metrics.counter("net.bytes_out").inc(len(data))

    async def _send_result(self, conn: _Conn, key: str, result: CaseResult) -> None:
        """Push a terminal result, applying any due torn-write chaos.

        A reset/truncate injection deliberately does *not* mark the
        result delivered: it stays in the terminal map, so the client's
        retry finds it via the idempotency key and gets a clean replay.
        """
        data = encode_frame(
            T_RESULT, {"key": key, "case_id": result.case_id, "result": result}
        )
        mode = None
        if self._reset_next > 0:
            self._reset_next -= 1
            mode = "reset"
        elif self._truncate_next > 0:
            self._truncate_next -= 1
            mode = "truncate"
        try:
            async with conn.lock:
                if mode == "reset":
                    # Torn write: half a frame, then a hard RST.
                    conn.writer.write(data[: max(1, len(data) // 2)])
                    await conn.writer.drain()
                    conn.writer.transport.abort()
                    self.metrics.counter("net.resets_injected").inc()
                elif mode == "truncate":
                    # Header promises the full payload; the stream ends
                    # early but *cleanly* — only the length prefix and
                    # checksum protect the reader here.
                    head = HEADER.size + max(0, (len(data) - HEADER.size) // 2)
                    conn.writer.write(data[:head])
                    await conn.writer.drain()
                    conn.writer.close()
                    self.metrics.counter("net.truncates_injected").inc()
                else:
                    conn.writer.write(data)
                    await conn.writer.drain()
                    self.metrics.counter("net.frames_out").inc()
                    self.metrics.counter("net.bytes_out").inc(len(data))
                    self.metrics.counter("net.results_sent").inc()
        except (ConnectionError, OSError, RuntimeError):
            # Subscriber vanished; the result stays replayable.
            pass
