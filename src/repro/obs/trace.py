"""Hierarchical trace spans for the intraoperative pipeline.

The paper's constraint is *latency*: every stage of the per-scan
processing must fit inside the surgical window, and flat per-stage
totals (the existing :class:`repro.core.Timeline`) cannot say where the
time inside a stage went. A :class:`Tracer` records a tree of timed
*spans* — scan → pipeline stage → solver internals — each carrying
free-form attributes (iteration counts, residuals, cache verdicts) and
point-in-time *events* (per-restart residuals, budget warnings).

Design constraints, in order:

1. **Near-zero overhead when disabled.** The solvers run thousands of
   inner iterations; instrumentation is placed at restart/phase
   granularity and a disabled tracer returns a shared no-op span, so
   the cost of an untraced call is one attribute check.
2. **Thread safety.** Finished spans append under a lock; the *active*
   span stack is thread-local, so worker threads nest their spans under
   their own roots rather than racing on a shared stack.
3. **No plumbing tax.** Deep modules (GMRES, preconditioners) read the
   *ambient* tracer via :func:`get_tracer` instead of growing a
   ``tracer=`` parameter through every signature; :func:`use_tracer`
   installs one for the duration of a ``with`` block.

Spans are exported through :mod:`repro.obs.export` (JSONL, Chrome
``trace_event`` JSON for Perfetto/``about:tracing``, text perf report).
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class SpanRecord:
    """One finished (or still-open) span.

    Attributes
    ----------
    span_id / parent_id:
        Tracer-unique integers; ``parent_id`` is ``None`` for roots.
    name:
        Span label (e.g. ``"biomechanical simulation"``).
    start / end:
        Seconds on the tracer's monotonic clock; ``end`` is ``None``
        while the span is open.
    thread:
        Native thread name the span ran on.
    pid:
        OS process id the span was recorded in (0 for legacy traces).
        Worker spans grafted into a server trace keep their worker pid,
        so the Chrome/Perfetto export shows one lane per process.
    attrs:
        Free-form attributes set at creation or via :meth:`Span.set`.
    events:
        Point-in-time events recorded inside the span:
        ``(timestamp, name, attrs)`` tuples.
    """

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float | None = None
    thread: str = "main"
    pid: int = 0
    attrs: dict = field(default_factory=dict)
    events: list[tuple[float, str, dict]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def as_dict(self) -> dict:
        """JSON-serializable form (the JSONL exporter's line payload)."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            "pid": self.pid,
            "attrs": self.attrs,
            "events": [
                {"ts": ts, "name": name, "attrs": attrs}
                for ts, name, attrs in self.events
            ],
        }


class _NullSpan:
    """Shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass

    def event(self, name: str, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class Span:
    """Context manager around one :class:`SpanRecord`.

    Entering pushes the span on the thread's active stack (so spans
    opened inside nest under it); exiting stamps the end time and pops.
    """

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record

    def set(self, **attrs) -> None:
        """Attach/overwrite attributes on the span."""
        self.record.attrs.update(attrs)

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time event inside the span."""
        self.record.events.append((self._tracer._now(), name, attrs))

    def close(self, **attrs) -> None:
        """Stamp the end time on a manually opened span (idempotent).

        Only for spans from :meth:`Tracer.open_span` — spans entered as
        context managers are closed by ``__exit__``. Extra ``attrs`` are
        attached before sealing.
        """
        if attrs:
            self.record.attrs.update(attrs)
        if self.record.end is None:
            self.record.end = self._tracer._now()

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.record.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False


class Tracer:
    """Collects a tree of timed spans.

    Parameters
    ----------
    enabled:
        A disabled tracer records nothing and hands out a shared no-op
        span — the hot paths stay instrumentation-free.
    clock:
        Monotonic time source (injectable for deterministic tests);
        defaults to :func:`time.perf_counter`.
    trace_id:
        Identity of the distributed trace this tracer contributes to.
        Generated when omitted; the serving tier propagates the server's
        id to workers (via :class:`repro.obs.telemetry.TraceContext`) so
        every process records under one trace.
    process_label:
        Human-readable name of this process in multi-process exports
        (Perfetto lane titles); defaults to ``"repro"``. Labels of
        grafted remote processes accumulate in :attr:`process_labels`.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock=None,
        trace_id: str | None = None,
        process_label: str = "repro",
    ):
        self.enabled = enabled
        self._clock = clock if clock is not None else time.perf_counter
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: list[SpanRecord] = []
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.process_labels: dict[int, str] = {os.getpid(): process_label}

    # -- time ---------------------------------------------------------------

    def _now(self) -> float:
        return float(self._clock())

    def now(self) -> float:
        """Current time on the tracer's clock (cross-process anchoring)."""
        return self._now()

    # -- span lifecycle -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs):
        """Open a span; use as ``with tracer.span("solve", tol=1e-5):``.

        Returns the shared no-op span when the tracer is disabled, so
        callers never need to branch on :attr:`enabled`.
        """
        if not self.enabled:
            return NULL_SPAN
        stack = self._stack()
        parent = stack[-1].record.span_id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = SpanRecord(
            span_id=span_id,
            parent_id=parent,
            name=name,
            start=self._now(),
            thread=threading.current_thread().name,
            pid=os.getpid(),
            attrs=dict(attrs),
        )
        return Span(self, record)

    def open_span(self, name: str, parent_id: int | None = None, **attrs):
        """Open a *manual* span, recorded immediately but never stacked.

        Unlike :meth:`span`, the returned span is not pushed on the
        thread's active stack — it must be sealed with
        :meth:`Span.close`. This is how a single-threaded control loop
        tracks many overlapping lifetimes (the serving tier keeps one
        ``serve.case`` span open per in-flight case); stack-based spans
        cannot overlap on one thread.
        """
        if not self.enabled:
            return NULL_SPAN
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = SpanRecord(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            start=self._now(),
            thread=threading.current_thread().name,
            pid=os.getpid(),
            attrs=dict(attrs),
        )
        span = Span(self, record)
        with self._lock:
            self.spans.append(record)
        return span

    def adopt_spans(
        self,
        records: list[SpanRecord],
        parent_id: int | None = None,
        offset: float = 0.0,
        process_label: str | None = None,
    ) -> dict[int, int]:
        """Graft foreign (e.g. worker-process) spans into this trace.

        Every record is copied in with a fresh id from this tracer's
        counter (foreign ids collide with local ones), parent links are
        remapped, and roots — records whose parent is ``None`` or not in
        the batch — are attached under ``parent_id``. ``offset`` shifts
        all timestamps (start/end/events) onto this tracer's clock
        domain. Returns the old-id -> new-id mapping.

        ``process_label`` registers a lane title for the records' pid in
        :attr:`process_labels` (multi-pid Chrome/Perfetto export).
        """
        if not self.enabled or not records:
            return {}
        with self._lock:
            id_map = {}
            for record in records:
                id_map[record.span_id] = self._next_id
                self._next_id += 1
        adopted: list[SpanRecord] = []
        for record in records:
            parent = record.parent_id
            adopted.append(
                SpanRecord(
                    span_id=id_map[record.span_id],
                    parent_id=id_map.get(parent, parent_id),
                    name=record.name,
                    start=record.start + offset,
                    end=None if record.end is None else record.end + offset,
                    thread=record.thread,
                    pid=record.pid,
                    attrs=dict(record.attrs),
                    events=[
                        (ts + offset, name, dict(attrs))
                        for ts, name, attrs in record.events
                    ],
                )
            )
        with self._lock:
            self.spans.extend(adopted)
            if process_label is not None:
                for record in adopted:
                    self.process_labels.setdefault(record.pid, process_label)
        return id_map

    def event(self, name: str, **attrs) -> None:
        """Record an event on the current span (or as a root event)."""
        if not self.enabled:
            return
        stack = self._stack()
        if stack:
            stack[-1].event(name, **attrs)
        else:
            # Root-level event: record as a zero-length span.
            t = self._now()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
                self.spans.append(
                    SpanRecord(
                        span_id=span_id,
                        parent_id=None,
                        name=name,
                        start=t,
                        end=t,
                        thread=threading.current_thread().name,
                        pid=os.getpid(),
                        attrs=dict(attrs, event=True),
                    )
                )

    def _push(self, span: Span) -> None:
        self._stack().append(span)
        with self._lock:
            self.spans.append(span.record)

    def _pop(self, span: Span) -> None:
        span.record.end = self._now()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # tolerate out-of-order exits rather than corrupting the stack
            try:
                stack.remove(span)
            except ValueError:
                pass

    # -- queries ------------------------------------------------------------

    def current(self) -> Span | None:
        """The innermost open span on this thread (None outside spans)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def finished(self) -> list[SpanRecord]:
        """Snapshot of all closed spans, in start order."""
        with self._lock:
            return [s for s in self.spans if s.end is not None]

    def roots(self) -> list[SpanRecord]:
        with self._lock:
            return [s for s in self.spans if s.parent_id is None]

    def children_of(self, span_id: int | None) -> list[SpanRecord]:
        with self._lock:
            return [s for s in self.spans if s.parent_id == span_id]

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
        self._local = threading.local()


def new_trace_id() -> str:
    """A fresh 32-hex-char trace identity (random, collision-safe)."""
    return uuid.uuid4().hex


#: Process-wide disabled tracer: the default ambient tracer, so
#: uninstrumented runs pay only the ``enabled`` check.
DISABLED = Tracer(enabled=False)

_ambient: Tracer = DISABLED
_ambient_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The ambient tracer (a disabled no-op unless one is installed)."""
    return _ambient


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` as the ambient tracer, returning the previous one.

    Passing ``None`` restores the disabled default.
    """
    global _ambient
    with _ambient_lock:
        previous = _ambient
        _ambient = tracer if tracer is not None else DISABLED
    return previous


@contextmanager
def use_tracer(tracer: Tracer):
    """Scope the ambient tracer to a ``with`` block::

        tracer = Tracer()
        with use_tracer(tracer):
            session.process(scan)
        print(render_report(tracer))
    """
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
