"""Cross-process telemetry: trace propagation and serializable frames.

The serving tier runs each surgical case inside a worker *process*;
every span the solvers record, every metric the registry accumulates
(the budget monitor's stage and scan durations among them) lives in
that process and dies with it — unless it is shipped home. This module
is the wire layer that ships it:

* :class:`TraceContext` — stamped on a case request by the server at
  dispatch: the distributed trace id, the server-side parent span the
  worker's spans will hang under, and the dispatch-time *anchor* on the
  server's clock used to rebase worker timestamps (worker and server
  ``perf_counter`` domains are not assumed comparable).
* :class:`CaseTelemetry` — the worker-side harness: builds a per-case
  tracer / metrics registry / budget monitor / flight recorder, installs
  the tracer and recorder as ambient for the duration of the case, and
  captures everything into a frame at the end.
* :class:`TelemetryFrame` — the compact, picklable return payload:
  finished spans (as plain dicts), a metrics snapshot, and the recent
  flight-ring entries.
* :func:`graft_frame` — server-side: adopts the frame's spans under the
  server's ``serve.case`` span (fresh ids, rebased clocks, worker pid
  preserved for the multi-pid Perfetto export) and merges the metrics
  snapshot into the server registry with per-instrument semantics.

One trace then covers admit → queue → dispatch → worker solve → commit,
across processes, loadable as a single Perfetto timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.budget import BudgetMonitor
from repro.obs.flight import FlightRecorder, use_flight_recorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, new_trace_id, span_from_dict, use_tracer

FRAME_FORMAT_VERSION = 1


@dataclass
class TraceContext:
    """Propagated trace identity: stamped on requests crossing processes.

    Attributes
    ----------
    trace_id:
        The distributed trace every participating process records under.
    parent_span_id:
        Server-side span id the remote spans will be grafted beneath.
    anchor:
        Dispatch time on the *originating* tracer's clock; the remote
        frame's spans are shifted so the remote clock origin lands here
        (clock domains across processes are never compared directly).
    collect_spans:
        False turns off remote span recording (metrics and flight
        entries still flow) — the cheap mode.
    process_label:
        Lane title the remote process should report (e.g. ``"worker-3"``;
        the worker id is appended when None).
    """

    trace_id: str
    parent_span_id: int | None = None
    anchor: float | None = None
    collect_spans: bool = True
    process_label: str | None = None

    @classmethod
    def from_tracer(
        cls,
        tracer: Tracer,
        parent_span_id: int | None = None,
        process_label: str | None = None,
    ) -> "TraceContext":
        """Stamp a context at the current instant on ``tracer``'s clock."""
        return cls(
            trace_id=tracer.trace_id,
            parent_span_id=parent_span_id,
            anchor=tracer.now(),
            collect_spans=tracer.enabled,
            process_label=process_label,
        )


@dataclass
class TelemetryFrame:
    """Everything one remote case produced, as plain picklable data.

    ``spans`` are :meth:`repro.obs.SpanRecord.as_dict` payloads on the
    *remote* clock; ``clock_base`` is the remote-clock instant that
    aligns with the context's ``anchor`` (the moment the worker began
    the case), so the graft can rebase. ``metrics`` is a
    :meth:`~repro.obs.MetricsRegistry.snapshot` (budget durations
    included); ``flight`` holds the recent flight-ring entries at
    capture time.
    """

    trace_id: str
    worker: int | str | None = None
    pid: int = 0
    clock_base: float = 0.0
    anchor: float | None = None
    spans: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    flight: list[dict] = field(default_factory=list)
    error: str | None = None
    version: int = FRAME_FORMAT_VERSION

    @property
    def n_spans(self) -> int:
        return len(self.spans)


class CaseTelemetry:
    """Worker-side per-case observability harness.

    Builds the full local stack — an enabled :class:`Tracer` under the
    propagated trace id, a :class:`MetricsRegistry`, a
    :class:`BudgetMonitor` wired to both, and a :class:`FlightRecorder`
    — and installs tracer + recorder as ambient for the ``with`` body
    (the pipeline, solvers and guards pick them up without plumbing).
    :meth:`frame` captures the case's telemetry for the trip home.

    ``import``-cheap and process-local: constructed inside the worker,
    never pickled (only the frame crosses back).
    """

    def __init__(
        self,
        context: TraceContext,
        worker: int | str | None = None,
        flight_capacity: int = 256,
    ):
        self.context = context
        self.worker = worker
        label = (
            context.process_label
            if context.process_label is not None
            else (f"worker-{worker}" if worker is not None else "worker")
        )
        self.label = label
        self.tracer = Tracer(
            enabled=context.collect_spans,
            trace_id=context.trace_id,
            process_label=label,
        )
        self.metrics = MetricsRegistry()
        self.monitor = BudgetMonitor(tracer=self.tracer, metrics=self.metrics)
        self.flight = FlightRecorder(capacity=flight_capacity, label=label)
        self.clock_base = self.tracer.now()
        self._scopes = None

    def __enter__(self) -> "CaseTelemetry":
        self._scopes = (use_tracer(self.tracer), use_flight_recorder(self.flight))
        for scope in self._scopes:
            scope.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        for scope in reversed(self._scopes or ()):
            scope.__exit__(exc_type, exc, tb)
        self._scopes = None
        return False

    def frame(self, error: str | None = None) -> TelemetryFrame:
        """Capture the case's telemetry as a picklable frame."""
        import os

        spans = (
            [record.as_dict() for record in self.tracer.finished()]
            if self.context.collect_spans
            else []
        )
        return TelemetryFrame(
            trace_id=self.context.trace_id,
            worker=self.worker,
            pid=os.getpid(),
            clock_base=self.clock_base,
            anchor=self.context.anchor,
            spans=spans,
            metrics=self.metrics.snapshot(),
            flight=self.flight.as_dicts(),
            error=error,
        )


def graft_frame(
    tracer: Tracer,
    frame: TelemetryFrame,
    parent_span_id: int | None = None,
    metrics: MetricsRegistry | None = None,
) -> int:
    """Adopt a remote frame into the local trace; returns spans grafted.

    Spans get fresh local ids, their parent links are remapped, roots
    hang under ``parent_span_id`` (typically the server's ``serve.case``
    span), and all timestamps are shifted by ``anchor - clock_base`` so
    the worker's timeline starts at the dispatch instant on the server's
    clock. The worker pid rides along, giving the Chrome export one
    process lane per worker. When ``metrics`` is given the frame's
    snapshot is merged with counter-sum / gauge-LWW / histogram-concat
    semantics under the frame's worker label.
    """
    offset = 0.0
    if frame.anchor is not None:
        offset = frame.anchor - frame.clock_base
    records = [span_from_dict(obj) for obj in frame.spans]
    label = f"worker-{frame.worker}" if frame.worker is not None else "worker"
    tracer.adopt_spans(
        records, parent_id=parent_span_id, offset=offset, process_label=label
    )
    if metrics is not None and frame.metrics:
        metrics.merge(frame.metrics, worker=frame.worker)
    return len(records)


def make_trace_context(
    tracer: Tracer | None = None,
    parent_span_id: int | None = None,
    process_label: str | None = None,
) -> TraceContext:
    """A context from ``tracer`` (or a fresh spanless one when None)."""
    if tracer is not None:
        return TraceContext.from_tracer(tracer, parent_span_id, process_label)
    return TraceContext(
        trace_id=new_trace_id(),
        parent_span_id=parent_span_id,
        collect_spans=False,
        process_label=process_label,
    )
