"""Observability: tracing, metrics, budgets, SLOs, and a flight recorder.

The paper's central constraint is *intraoperative latency* — every
per-scan action has to fit inside the surgical window. This subpackage
gives the repro the instrumentation layer such a system assumes:

* :mod:`repro.obs.trace` — nested trace spans threaded through the
  pipeline, FEM, solver and virtual-parallel layers; near-zero-overhead
  no-op when disabled.
* :mod:`repro.obs.metrics` — counters, gauges and histograms behind one
  registry (solve-context cache stats, GMRES convergence, mesh sizes),
  with :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` /
  :meth:`~repro.obs.metrics.MetricsRegistry.merge` for cross-process
  aggregation.
* :mod:`repro.obs.export` — JSONL event log, multi-process Chrome
  ``trace_event`` JSON (Perfetto / ``about:tracing``), a text span-tree
  perf report with self/total times and repeat-span percentiles, and
  Prometheus text exposition for metrics.
* :mod:`repro.obs.budget` — the paper's per-stage / per-scan time
  budgets: :meth:`~repro.obs.budget.ScanVerdict.of` judges a scan's stage
  durations (its verdict, warnings and headroom); and
  :func:`~repro.obs.budget.slo_summary`, the service-level view: p50/p95/p99
  per stage, read from the budget histograms of any metrics registry and
  scored against the paper budgets.
* :mod:`repro.obs.flight` — a bounded ring buffer of recent telemetry,
  dumped atomically on faults for post-mortem analysis.
* :mod:`repro.obs.telemetry` — cross-process trace propagation: trace
  contexts stamped on serving requests, picklable telemetry frames
  shipped back from workers, and span grafting into the server's trace.

Quick start::

    from repro.obs import Tracer, use_tracer, render_report

    tracer = Tracer()
    with use_tracer(tracer):
        result = pipeline.process_scan(scan, preop)
    print(render_report(tracer))

Like :mod:`repro.util`, this subpackage depends only on
:mod:`repro.util`; every other subsystem may import from it.
"""

from repro.obs.budget import (
    PAPER_SCAN_BUDGET,
    PAPER_STAGE_BUDGETS,
    SCAN_TOTAL,
    ScanVerdict,
    StageCheck,
    render_slo_summary,
    slo_summary,
)
from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    read_jsonl,
    render_report,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.flight import (
    FlightEntry,
    FlightRecorder,
    get_flight_recorder,
    load_flight_dump,
    render_flight_dump,
    set_flight_recorder,
    use_flight_recorder,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.telemetry import (
    CaseTelemetry,
    TelemetryFrame,
    TraceContext,
    graft_frame,
    make_trace_context,
)
from repro.obs.trace import (
    Span,
    SpanRecord,
    Tracer,
    get_tracer,
    new_trace_id,
    set_tracer,
    span_from_dict,
    use_tracer,
)

__all__ = [
    "PAPER_SCAN_BUDGET",
    "PAPER_STAGE_BUDGETS",
    "SCAN_TOTAL",
    "CaseTelemetry",
    "Counter",
    "FlightEntry",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ScanVerdict",
    "Span",
    "SpanRecord",
    "StageCheck",
    "TelemetryFrame",
    "TraceContext",
    "Tracer",
    "chrome_trace",
    "get_flight_recorder",
    "get_tracer",
    "graft_frame",
    "load_flight_dump",
    "make_trace_context",
    "new_trace_id",
    "prometheus_text",
    "read_jsonl",
    "render_flight_dump",
    "render_report",
    "render_slo_summary",
    "set_flight_recorder",
    "set_tracer",
    "slo_summary",
    "span_from_dict",
    "use_flight_recorder",
    "use_tracer",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
