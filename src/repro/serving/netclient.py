"""The submitting side of the network serving tier.

:class:`NetClient` is the surgical workstation's view of a remote
:class:`repro.serving.NetworkFrontEnd`: it speaks the frame protocol of
:mod:`repro.serving.transport` over a plain blocking socket (the client
is single-threaded by design — one OR workstation, one session driver)
and carries every reliability duty the wire adds:

* **Idempotency keys** — every submission is keyed (default: the case
  id) so retries and reconnect-driven resubmissions are collapsed
  server-side; a duplicate of a finished case replays the recorded
  result instead of solving twice.
* **Deadlines that include the wire** — the client stamps
  ``client_enqueue_unix`` the moment a case is committed to the socket,
  so the server charges network transit and transport queuing against
  ``deadline_s`` rather than silently extending it.
* **Capped-exponential retry with deterministic jitter** — connect and
  RPC failures back off :func:`repro.serving.protocol.retry_backoff`
  (the gateway's re-admission delay), so a thousand replayed soaks retry
  at exactly the same instants.
* **Circuit breaking** — repeated connect failures open a
  :class:`CircuitBreaker`; while open the client sleeps out the
  cooldown instead of hammering a partitioned or dead server, then
  half-opens with a single probe.
* **Reconnect + resubmit** — a torn result frame, checksum mismatch, or
  reset connection drops the socket and resubmits every unresolved case
  (a deliberate duplicate delivery the server's dedup layer absorbs).

Client-side observability lands in the client's metrics registry:
``net.client.bytes_sent`` / ``bytes_received``, ``retries``,
``reconnects``, ``resubmits``, ``frame_errors``, and the breaker state
gauge (0 closed / 1 half-open / 2 open).
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.serving.protocol import CaseRequest, CaseResult, retry_backoff
from repro.serving.transport import (
    DIGEST_SIZE,
    HEADER,
    T_ADMIT,
    T_ERROR,
    T_PING,
    T_PONG,
    T_PREOP_CHECK,
    T_PREOP_HAVE,
    T_PREOP_PUT,
    T_PREOP_ACK,
    T_RESULT,
    T_SUBMIT,
    FrameError,
    encode_frame,
    encode_submit,
    encode_volume,
    finish_frame,
    parse_header,
)
from repro.util import ValidationError


class NetError(ValidationError):
    """A transport operation that failed after exhausting its retries."""


#: Breaker states, in escalation order (gauge values).
BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half-open"
BREAKER_OPEN = "open"
_BREAKER_GAUGE = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}

#: Socket budgets, seconds. An io timeout while waiting is treated as a
#: connection failure: drop, reconnect, resubmit (safe under idempotency,
#: and it doubles as a liveness check on the server).
CONNECT_TIMEOUT_S = 2.0
IO_TIMEOUT_S = 30.0
#: Attempt budget per operation (connect loop, submit RPC, wait
#: reconnect loop).
MAX_RETRIES = 8
#: Retry backoff (:func:`repro.serving.protocol.retry_backoff`): base and
#: cap, seconds.
RETRY_BASE_S = 0.05
RETRY_CAP_S = 1.0


@dataclass
class CircuitBreaker:
    """Connect-failure circuit breaker: closed -> open -> half-open.

    ``failure_threshold`` consecutive failures open the breaker; while
    open, :meth:`allow` refuses for ``cooldown_s``, then admits a single
    half-open probe. A probe success closes the breaker, a probe
    failure re-opens it for another cooldown.
    """

    failure_threshold: int = 3
    cooldown_s: float = 1.0
    failures: int = 0
    trips: int = 0
    _opened_at: float | None = None
    _half_open: bool = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return BREAKER_CLOSED
        if self._half_open or (
            time.monotonic() - self._opened_at >= self.cooldown_s
        ):
            return BREAKER_HALF_OPEN
        return BREAKER_OPEN

    def allow(self) -> bool:
        """May an attempt proceed right now?"""
        if self._opened_at is None:
            return True
        if time.monotonic() - self._opened_at >= self.cooldown_s:
            self._half_open = True
            return True
        return False

    def remaining_cooldown(self) -> float:
        if self._opened_at is None:
            return 0.0
        return max(
            0.0, self.cooldown_s - (time.monotonic() - self._opened_at)
        )

    def record_success(self) -> None:
        self.failures = 0
        self._opened_at = None
        self._half_open = False

    def record_failure(self) -> None:
        self.failures += 1
        if self._half_open or self.failures >= self.failure_threshold:
            if self._opened_at is None or self._half_open:
                self.trips += 1
            self._opened_at = time.monotonic()
            self._half_open = False


class NetClient:
    """Blocking client for a :class:`repro.serving.NetworkFrontEnd`.

    Driver model: :meth:`submit` each case (uploading its preop model
    once per patient, content-addressed), then :meth:`wait` for every
    terminal :class:`CaseResult`. Both survive connection loss — a
    reconnect resubmits all unresolved cases under their idempotency
    keys and the server's dedup layer guarantees single execution.

    ``host`` / ``port`` is the front-end's listen address. The client's
    ``net.client.*`` series land in its own :attr:`metrics` registry;
    :attr:`breaker` (3 failures, 1 s cooldown) guards connects.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = int(port)
        self.metrics = MetricsRegistry()
        self.breaker = CircuitBreaker()
        self._sock: socket.socket | None = None
        self._tag = 0
        self._preops: dict[str, tuple] = {}  # preop_key -> (mri, labels)
        self._uploaded: set[str] = set()
        self._unresolved: dict[str, dict] = {}  # case_id -> submit payload
        self.results: dict[str, CaseResult] = {}
        self._gauge_breaker()

    # -- connection -----------------------------------------------------------

    def _gauge_breaker(self) -> None:
        self.metrics.gauge("net.client.breaker_state").set(
            _BREAKER_GAUGE[self.breaker.state]
        )

    def _pause(self, token: str, attempt: int) -> None:
        """Sleep out the backoff before retry ``attempt`` of ``token``."""
        time.sleep(retry_backoff(RETRY_BASE_S, RETRY_CAP_S, attempt, token))

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def connect(self) -> None:
        """Establish the connection, retrying through the breaker."""
        if self._sock is not None:
            return
        attempt = 0
        while True:
            if not self.breaker.allow():
                # Breaker open: sleeping out the cooldown *is* the
                # policy — a single-server client has nowhere to fail
                # over to, it must just stop hammering.
                self._gauge_breaker()
                time.sleep(max(0.01, self.breaker.remaining_cooldown()))
                continue
            self._gauge_breaker()
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=CONNECT_TIMEOUT_S
                )
            except OSError as exc:
                self.breaker.record_failure()
                self._gauge_breaker()
                attempt += 1
                self.metrics.counter("net.client.retries").inc()
                if attempt > MAX_RETRIES:
                    raise NetError(
                        f"connect to {self.host}:{self.port} failed after "
                        f"{attempt} attempts: {exc}"
                    ) from exc
                self._pause("connect", attempt)
                continue
            sock.settimeout(IO_TIMEOUT_S)
            self._sock = sock
            # A fresh connection may be a fresh server: forget what we
            # believe it holds and re-negotiate preops on demand.
            self._uploaded.clear()
            self.breaker.record_success()
            self._gauge_breaker()
            self.metrics.counter("net.client.connects").inc()
            return

    def close(self) -> None:
        self._drop_connection()

    # -- framing --------------------------------------------------------------

    def _send_frame(self, ftype: int, payload: dict) -> None:
        data = encode_frame(ftype, payload)
        assert self._sock is not None
        self._sock.sendall(data)
        self.metrics.counter("net.client.frames_sent").inc()
        self.metrics.counter("net.client.bytes_sent").inc(len(data))

    def _recv_exact(self, n: int) -> bytes:
        assert self._sock is not None
        buf = bytearray()
        while len(buf) < n:
            chunk = self._sock.recv(n - len(buf))
            if not chunk:
                raise FrameError(
                    f"connection closed mid-frame ({len(buf)}/{n} bytes)"
                )
            buf.extend(chunk)
        return bytes(buf)

    def _read_frame(self):
        """Read one frame; returns ``(type, payload)``.

        Raises :class:`FrameError` on truncation/corruption and
        ``OSError`` on socket failure — both mean "drop the connection".
        """
        try:
            header = self._recv_exact(HEADER.size)
            ftype, _, length = parse_header(header)
            body = self._recv_exact(length + DIGEST_SIZE)
        except FrameError:
            self.metrics.counter("net.client.frame_errors").inc()
            raise
        payload = finish_frame(header, body)
        self.metrics.counter("net.client.frames_received").inc()
        self.metrics.counter("net.client.bytes_received").inc(
            HEADER.size + len(body)
        )
        return ftype, payload

    def _rpc(self, ftype: int, payload: dict, want: tuple[int, ...]) -> dict:
        """One tagged request/response, absorbing interleaved results.

        ``T_RESULT`` pushes that arrive while awaiting the reply are
        resolved in place; stale tagged replies (e.g. a second ACK from
        an injected duplicate delivery) are skipped.
        """
        tag = self._tag
        self._tag += 1
        self._send_frame(ftype, dict(payload, tag=tag))
        while True:
            rtype, robj = self._read_frame()
            if rtype == T_RESULT:
                self._absorb_result(robj)
                continue
            if not isinstance(robj, dict) or robj.get("tag") != tag:
                self.metrics.counter("net.client.stale_replies").inc()
                continue
            if rtype == T_ERROR:
                raise NetError(
                    f"server error: {robj.get('detail', 'unknown')}"
                )
            if rtype not in want:
                raise NetError(f"unexpected reply frame type {rtype}")
            return robj

    def _absorb_result(self, payload: dict) -> None:
        result = payload.get("result")
        if not isinstance(result, CaseResult):
            return
        self.results[result.case_id] = result
        self._unresolved.pop(result.case_id, None)
        self.metrics.counter("net.client.results").inc()

    # -- health ---------------------------------------------------------------

    def ping(self, probe: str = "ready") -> dict:
        """Health probe; returns the server's liveness/readiness payload."""
        self.connect()
        try:
            return self._rpc(T_PING, {"probe": probe}, want=(T_PONG,))
        except (OSError, FrameError) as exc:
            self._drop_connection()
            raise NetError(f"ping failed: {exc}") from exc

    # -- preop negotiation ----------------------------------------------------

    def _negotiate_preop(self, payload: dict) -> None:
        key = payload["preop_key"]
        if key in self._uploaded:
            return
        have = self._rpc(T_PREOP_CHECK, {"keys": [key]}, want=(T_PREOP_HAVE,))
        if key not in have.get("have", ()):
            volumes = self._preops.get(key)
            if volumes is None:
                raise NetError(
                    f"preop volumes for key {key[:12]}... not held client-side"
                )
            mri, labels = volumes
            ack = self._rpc(
                T_PREOP_PUT,
                {
                    "key": key,
                    "mri": encode_volume(mri),
                    "labels": encode_volume(labels),
                },
                want=(T_PREOP_ACK,),
            )
            if not ack.get("stored"):
                raise NetError(
                    f"preop upload refused: {ack.get('detail', 'unknown')}"
                )
            self.metrics.counter("net.client.preop_uploads").inc()
        self._uploaded.add(key)

    # -- submission -----------------------------------------------------------

    def submit(self, request: CaseRequest) -> dict:
        """Submit one case; returns the server's admission ack payload.

        Stamps the wall-clock enqueue instant (so the server charges
        wire delay against the deadline) and defaults the idempotency
        key to the case id. The terminal result arrives via
        :meth:`wait`; under dedup replay it may already be in
        :attr:`results` when this returns.
        """
        payload = encode_submit(request)
        payload["client_enqueue_unix"] = time.time()
        self._preops[payload["preop_key"]] = (
            request.preop_mri,
            request.preop_labels,
        )
        return self._submit_payload(request.case_id, payload)

    def _submit_payload(self, case_id: str, payload: dict) -> dict:
        self._unresolved[case_id] = payload
        attempt = 0
        while True:
            try:
                self.connect()
                self._negotiate_preop(payload)
                ack = self._rpc(T_SUBMIT, payload, want=(T_ADMIT,))
            except (OSError, FrameError) as exc:
                self._drop_connection()
                attempt += 1
                self.metrics.counter("net.client.retries").inc()
                if attempt > MAX_RETRIES:
                    self._unresolved.pop(case_id, None)
                    raise NetError(
                        f"submit of {case_id!r} failed after {attempt} "
                        f"attempts: {exc}"
                    ) from exc
                self._pause(case_id, attempt)
                continue
            if ack.get("need_preop"):
                # Raced a server restart between check and submit:
                # forget, re-negotiate, resend.
                self._uploaded.discard(payload["preop_key"])
                attempt += 1
                if attempt > MAX_RETRIES:
                    self._unresolved.pop(case_id, None)
                    raise NetError(
                        f"submit of {case_id!r}: server kept demanding the "
                        "preop upload"
                    )
                continue
            if not ack.get("accepted"):
                # Refused at the transport (draining, malformed, key
                # mismatch) — never admitted, so no terminal result will
                # follow.
                self._unresolved.pop(case_id, None)
                raise NetError(
                    f"submit of {case_id!r} refused: "
                    f"{ack.get('detail', 'unknown')}"
                )
            if ack.get("dedup") not in (None, "none"):
                self.metrics.counter("net.client.dedup_acks").inc()
            return ack

    # -- awaiting results -----------------------------------------------------

    def resubmit_unresolved(self) -> int:
        """Resubmit every unresolved case (after a reconnect).

        These are exactly the duplicate deliveries the server's
        idempotency layer exists for: already-running cases collapse
        onto their execution, finished ones replay their result.
        """
        pending = dict(self._unresolved)
        for case_id, payload in pending.items():
            self.metrics.counter("net.client.resubmits").inc()
            self._submit_payload(case_id, payload)
        return len(pending)

    def wait(self, timeout: float | None = None) -> dict[str, CaseResult]:
        """Block until every submitted case has a terminal result.

        Reads result pushes off the connection; on connection loss or a
        torn/corrupt frame, reconnects (with backoff + breaker) and
        resubmits the unresolved remainder. Returns
        ``{case_id: CaseResult}`` for everything resolved so far.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        attempt = 0
        while self._unresolved:
            if deadline is not None and time.monotonic() > deadline:
                raise NetError(
                    f"timed out waiting for {sorted(self._unresolved)}"
                )
            try:
                if self._sock is None:
                    self.connect()
                    self.metrics.counter("net.client.reconnects").inc()
                    self.resubmit_unresolved()
                    attempt = 0
                    continue
                rtype, robj = self._read_frame()
            except (OSError, FrameError, NetError):
                self._drop_connection()
                attempt += 1
                if attempt > MAX_RETRIES:
                    raise NetError(
                        f"connection to {self.host}:{self.port} kept failing "
                        f"({attempt} attempts) with "
                        f"{sorted(self._unresolved)} unresolved"
                    )
                self._pause("wait", attempt)
                continue
            if rtype == T_RESULT:
                self._absorb_result(robj)
            else:
                # Stray tagged replies (duplicate-delivery ACKs, late
                # delayed ACKs) are expected noise here.
                self.metrics.counter("net.client.stale_replies").inc()
        return dict(self.results)
