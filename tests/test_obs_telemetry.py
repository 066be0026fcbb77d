"""Unit tests for the cross-process telemetry layer.

Covers the wire pieces in isolation (no worker processes): trace
contexts, the worker-side CaseTelemetry harness, frame capture and
pickling, span grafting with id remapping and clock rebasing, the
registry's snapshot/merge semantics (including a concurrent
observe-vs-merge race), histogram quantiles, the SLO view, the
flight recorder ring + dump round-trip, Prometheus text exposition,
and the multi-pid Chrome trace export. The serving-tier end-to-end
paths live in tests/test_serving.py.
"""

from __future__ import annotations

import json
import pickle
import threading

import pytest

from repro.obs.budget import (
    PAPER_SCAN_BUDGET,
    SCAN_TOTAL,
    BudgetMonitor,
    render_slo_summary,
    slo_summary,
)
from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    write_prometheus,
)
from repro.obs.flight import (
    DISABLED_FLIGHT,
    FlightRecorder,
    get_flight_recorder,
    load_flight_dump,
    render_flight_dump,
    set_flight_recorder,
    use_flight_recorder,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.telemetry import (
    CaseTelemetry,
    TelemetryFrame,
    TraceContext,
    graft_frame,
    make_trace_context,
)
from repro.obs.trace import SpanRecord, Tracer, get_tracer, span_from_dict
from repro.util import ValidationError


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self):
        return self.t


# -- trace context -----------------------------------------------------------


class TestTraceContext:
    def test_from_tracer_captures_identity_and_anchor(self):
        clock = FakeClock(7.5)
        tracer = Tracer(clock=clock, trace_id="abc123")
        ctx = TraceContext.from_tracer(tracer, parent_span_id=4, process_label="w")
        assert ctx.trace_id == "abc123"
        assert ctx.parent_span_id == 4
        assert ctx.anchor == 7.5
        assert ctx.collect_spans is True
        assert ctx.process_label == "w"

    def test_from_disabled_tracer_turns_span_collection_off(self):
        ctx = TraceContext.from_tracer(Tracer(enabled=False))
        assert ctx.collect_spans is False

    def test_make_trace_context_without_tracer(self):
        ctx = make_trace_context()
        assert len(ctx.trace_id) == 32
        assert ctx.collect_spans is False
        assert ctx.anchor is None

    def test_context_pickles(self):
        ctx = make_trace_context(Tracer(trace_id="t"), parent_span_id=1)
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone.trace_id == "t" and clone.parent_span_id == 1


# -- worker-side harness -----------------------------------------------------


class TestCaseTelemetry:
    def _context(self, **kwargs):
        return TraceContext(trace_id="trace", **kwargs)

    def test_installs_and_restores_ambient_tracer_and_flight(self):
        telemetry = CaseTelemetry(self._context(), worker=3)
        before_tracer, before_flight = get_tracer(), get_flight_recorder()
        with telemetry:
            assert get_tracer() is telemetry.tracer
            assert get_flight_recorder() is telemetry.flight
        assert get_tracer() is before_tracer
        assert get_flight_recorder() is before_flight

    def test_frame_captures_spans_metrics_verdicts_flight(self):
        telemetry = CaseTelemetry(self._context(), worker=0)
        with telemetry:
            with get_tracer().span("scan", index=0):
                pass
            telemetry.metrics.counter("gmres.solves").inc(2)
            telemetry.monitor.begin_scan()
            telemetry.monitor.observe_stage("biomechanical simulation", 1.0)
            telemetry.monitor.finish_scan()
            get_flight_recorder().note("scan.complete", scan=0)
        frame = telemetry.frame()
        assert frame.trace_id == "trace"
        assert frame.worker == 0
        assert frame.pid > 0
        assert [s["name"] for s in frame.spans] == ["scan"]
        assert frame.metrics["counters"]["gmres.solves"] == 2
        histograms = frame.metrics["histograms"]
        assert histograms["budget.stage_seconds[stage=biomechanical simulation]"] == [1.0]
        assert histograms["budget.scan_seconds"] == [1.0]
        assert frame.flight[0]["kind"] == "scan.complete"
        assert frame.error is None
        assert frame.n_spans == 1

    def test_collect_spans_off_still_ships_metrics(self):
        telemetry = CaseTelemetry(self._context(collect_spans=False))
        with telemetry:
            with get_tracer().span("scan"):
                pass
            telemetry.metrics.counter("c").inc()
        frame = telemetry.frame(error="boom")
        assert frame.spans == []
        assert frame.metrics["counters"]["c"] == 1
        assert frame.error == "boom"

    def test_worker_label_defaults(self):
        assert CaseTelemetry(self._context(), worker=5).label == "worker-5"
        assert CaseTelemetry(self._context()).label == "worker"
        labelled = CaseTelemetry(self._context(process_label="gpu-0"), worker=5)
        assert labelled.label == "gpu-0"

    def test_frame_pickles_across_process_boundary(self):
        telemetry = CaseTelemetry(self._context(), worker=1)
        with telemetry:
            with get_tracer().span("scan") as span:
                span.event("restart", cycle=0)
            telemetry.metrics.histogram("h").observe(1.5)
        frame = pickle.loads(pickle.dumps(telemetry.frame()))
        assert isinstance(frame, TelemetryFrame)
        assert frame.spans[0]["events"][0]["name"] == "restart"
        assert frame.metrics["histograms"]["h"] == [1.5]


# -- grafting ----------------------------------------------------------------


def _remote_frame(spans, clock_base=100.0, anchor=10.0, worker=0, **metrics):
    return TelemetryFrame(
        trace_id="trace",
        worker=worker,
        pid=4242,
        clock_base=clock_base,
        anchor=anchor,
        spans=spans,
        metrics=metrics.get("metrics", {}),
    )


def _span_dict(span_id, parent, name, start, end, pid=4242):
    return SpanRecord(
        span_id=span_id, parent_id=parent, name=name, start=start, end=end, pid=pid
    ).as_dict()


class TestGraftFrame:
    def test_rebases_clock_and_remaps_ids_under_parent(self):
        server = Tracer(clock=FakeClock(0.0), process_label="server")
        case = server.open_span("serve.case")
        frame = _remote_frame(
            [
                _span_dict(0, None, "scan", 101.0, 103.0),
                _span_dict(1, 0, "solve", 101.5, 102.5),
            ]
        )
        grafted = graft_frame(
            server, frame, parent_span_id=case.record.span_id
        )
        assert grafted == 2
        scan = next(s for s in server.spans if s.name == "scan")
        solve = next(s for s in server.spans if s.name == "solve")
        # anchor(10) - clock_base(100) = -90: worker 101.0 -> server 11.0.
        assert scan.start == pytest.approx(11.0)
        assert scan.end == pytest.approx(13.0)
        assert solve.start == pytest.approx(11.5)
        # Fresh local ids; parent links remapped; root under serve.case.
        assert scan.span_id != 0 and solve.span_id != 1
        assert scan.parent_id == case.record.span_id
        assert solve.parent_id == scan.span_id
        # Worker pid preserved, lane label registered.
        assert scan.pid == 4242
        assert server.process_labels[4242] == "worker-0"

    def test_events_rebased_with_spans(self):
        server = Tracer(clock=FakeClock())
        record = SpanRecord(0, None, "scan", 100.5, 101.0, pid=9)
        record.events.append((100.75, "restart", {"cycle": 1}))
        graft_frame(server, _remote_frame([record.as_dict()]))
        (adopted,) = server.spans
        assert adopted.events[0][0] == pytest.approx(10.75)
        assert adopted.events[0][1] == "restart"

    def test_missing_anchor_grafts_unshifted(self):
        server = Tracer(clock=FakeClock())
        frame = _remote_frame([_span_dict(0, None, "scan", 5.0, 6.0)], anchor=None)
        graft_frame(server, frame)
        assert server.spans[0].start == 5.0

    def test_merges_metrics_under_worker_label(self):
        server = Tracer(clock=FakeClock())
        registry = MetricsRegistry()
        registry.counter("gmres.solves").inc(1)
        frame = _remote_frame([], worker=2)
        frame.metrics = {
            "counters": {"gmres.solves": 3},
            "gauges": {"gmres.last_residual": 1e-8},
            "histograms": {"serving.scan_seconds": [0.5, 0.7]},
        }
        graft_frame(server, frame, metrics=registry)
        assert registry.value("gmres.solves") == 4
        assert registry.value("gmres.last_residual[worker=2]") == pytest.approx(1e-8)
        assert registry.get("serving.scan_seconds").count == 2

    def test_span_from_dict_round_trip(self):
        record = SpanRecord(7, 3, "x", 1.0, 2.0, thread="w0", pid=11, attrs={"k": 1})
        record.events.append((1.5, "e", {"a": 2}))
        clone = span_from_dict(record.as_dict())
        assert clone == record


# -- snapshot / merge semantics ----------------------------------------------


class TestRegistryMerge:
    def test_counters_sum_gauges_lww_histograms_concat(self):
        target = MetricsRegistry()
        target.counter("c").inc(1)
        target.gauge("g").set(1.0)
        target.histogram("h").observe(1.0)
        source = MetricsRegistry()
        source.counter("c").inc(4)
        source.gauge("g").set(9.0)
        source.histogram("h").observe(3.0)
        source.histogram("h").observe(2.0)
        target.merge(source.snapshot())
        assert target.value("c") == 5
        assert target.value("g") == 9.0
        assert sorted(target.get("h").values) == [1.0, 2.0, 3.0]

    def test_worker_label_preserves_per_worker_gauges(self):
        target = MetricsRegistry()
        for worker, residual in ((0, 1e-7), (1, 1e-9)):
            source = MetricsRegistry()
            source.gauge("gmres.last_residual").set(residual)
            target.merge(source.snapshot(), worker=worker)
        # Shared name is last-write-wins; per-worker copies survive.
        assert target.value("gmres.last_residual") == pytest.approx(1e-9)
        assert target.value("gmres.last_residual[worker=0]") == pytest.approx(1e-7)
        assert target.value("gmres.last_residual[worker=1]") == pytest.approx(1e-9)

    def test_snapshot_is_json_serializable_and_detached(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        json.dumps(snap)
        snap["histograms"]["h"].append(99.0)  # mutating the snapshot ...
        assert registry.get("h").values == [1.0]  # ... must not leak back

    def test_concurrent_observe_and_merge_lose_nothing(self):
        """Local observers and frame merges race on one registry.

        Four observer threads increment a counter and feed a histogram
        while four merger threads fold worker snapshots in. Counters
        must end exactly summed and the histogram must hold every
        observation — a dropped update means unlocked read-modify-write.
        """
        registry = MetricsRegistry()
        n_iter, n_threads = 200, 4
        worker_snapshot = {
            "counters": {"c": 1.0},
            "gauges": {"g": 2.0},
            "histograms": {"h": [1.0]},
        }
        barrier = threading.Barrier(2 * n_threads)

        def observe():
            barrier.wait()
            for _ in range(n_iter):
                registry.counter("c").inc()
                registry.histogram("h").observe(0.5)

        def merge(worker):
            barrier.wait()
            for _ in range(n_iter):
                registry.merge(worker_snapshot, worker=worker)

        threads = [threading.Thread(target=observe) for _ in range(n_threads)]
        threads += [
            threading.Thread(target=merge, args=(w,)) for w in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * n_iter
        assert registry.value("c") == 2 * total
        assert registry.get("h").count == 2 * total
        assert registry.value("g") == 2.0
        for w in range(n_threads):
            assert registry.value(f"g[worker={w}]") == 2.0


# -- histogram quantiles -----------------------------------------------------


class TestHistogramQuantile:
    def test_linear_interpolation(self):
        h = Histogram("h")
        h.extend([1.0, 2.0, 3.0, 4.0])
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 4.0
        assert h.quantile(0.5) == pytest.approx(2.5)
        assert h.quantile(0.95) == pytest.approx(3.85)

    def test_empty_is_zero(self):
        assert Histogram("h").quantile(0.5) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValidationError):
            Histogram("h").quantile(1.5)

    def test_summary_includes_percentiles(self):
        h = Histogram("h")
        h.extend(float(i) for i in range(1, 101))
        summary = h.summary()
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["p99"] == pytest.approx(99.01)


# -- SLO view ----------------------------------------------------------------


def _scan(metrics: MetricsRegistry, *stages: tuple[str, float]) -> None:
    """One scan through a budget monitor recording into ``metrics``."""
    monitor = BudgetMonitor(metrics=metrics)
    monitor.begin_scan()
    for stage, seconds in stages:
        monitor.observe_stage(stage, seconds)
    monitor.finish_scan()


class TestSLOTracker:
    """The SLO table: :func:`slo_summary`, a view of the budget histograms."""

    def test_default_targets_are_paper_budgets(self):
        metrics = MetricsRegistry()
        _scan(metrics, ("biomechanical simulation", 1.0))
        series = slo_summary(metrics)["series"]
        assert series["biomechanical simulation"]["target"] == 10.0
        assert series[SCAN_TOTAL]["target"] == PAPER_SCAN_BUDGET

    def test_observe_scores_against_target(self):
        metrics = MetricsRegistry()
        _scan(metrics, ("biomechanical simulation", 1.0))
        _scan(metrics, ("biomechanical simulation", 25.0))
        summary = slo_summary(metrics)
        assert summary["series"]["biomechanical simulation"]["violations"] == 1
        assert summary["series"][SCAN_TOTAL]["violations"] == 0
        assert summary["total_violations"] == 1

    def test_target_none_tracks_without_scoring(self):
        metrics = MetricsRegistry()
        metrics.histogram("serving.queue_wait_seconds").observe(1e6)
        metrics.histogram("serving.case_seconds").observe(1e6)
        summary = slo_summary(metrics)
        for name in ("queue wait", "case service"):
            assert summary["series"][name]["count"] == 1
            assert summary["series"][name]["target"] is None
            assert summary["series"][name]["violations"] == 0
            assert summary["series"][name]["met"] is True
        assert summary["all_met"] is True

    def test_summary_attainment_and_all_met(self):
        metrics = MetricsRegistry()
        # 19 fast solves and one outlier: p95 stays under the 10 s budget.
        for _ in range(19):
            _scan(metrics, ("biomechanical simulation", 1.0))
        _scan(metrics, ("biomechanical simulation", 50.0))
        summary = slo_summary(metrics)
        sim = summary["series"]["biomechanical simulation"]
        assert sim["violations"] == 1
        assert sim["met"] is True
        assert summary["all_met"] is True
        # Two outliers in twenty-one put p95 past the budget.
        _scan(metrics, ("biomechanical simulation", 50.0))
        summary = slo_summary(metrics)
        assert summary["series"]["biomechanical simulation"]["met"] is False
        assert summary["all_met"] is False

    def test_table_and_render_from_json_round_trip(self):
        metrics = MetricsRegistry()
        _scan(metrics, ("biomechanical simulation", 25.0))
        metrics.histogram("serving.queue_wait_seconds").observe(0.1)
        table = render_slo_summary(slo_summary(metrics))
        assert "biomechanical simulation" in table
        assert "queue wait" in table
        assert "MISSED" in table
        # The snapshot survives JSON and scores identically once merged.
        restored = MetricsRegistry()
        restored.merge(json.loads(json.dumps(metrics.snapshot())))
        assert slo_summary(restored) == slo_summary(metrics)
        assert render_slo_summary(slo_summary(restored)) == table

    def test_render_empty_summary(self):
        assert "no SLO samples" in render_slo_summary(slo_summary(MetricsRegistry()))


# -- flight recorder ---------------------------------------------------------


class TestFlightRecorder:
    def test_ring_bound_evicts_oldest_and_counts_dropped(self):
        flight = FlightRecorder(capacity=3, clock=FakeClock())
        for i in range(5):
            flight.note("n", i=i)
        entries = flight.entries()
        assert [e.attrs["i"] for e in entries] == [2, 3, 4]
        assert flight.dropped == 2
        flight.clear()
        assert flight.entries() == [] and flight.dropped == 0

    def test_disabled_recorder_drops_everything(self):
        flight = FlightRecorder(enabled=False)
        flight.note("n")
        flight.record_metric_delta("c", 1.0, 1.0)
        assert flight.entries() == []

    def test_capacity_validation(self):
        with pytest.raises(ValidationError):
            FlightRecorder(capacity=0)

    def test_record_span_compacts_attrs(self):
        flight = FlightRecorder(clock=FakeClock())
        record = SpanRecord(0, None, "solve", 0.0, 2.0, attrs={"kind": "stage",
                                                               "iters": 12})
        flight.record_span(record)
        (entry,) = flight.entries()
        assert entry.kind == "span"
        assert entry.attrs == {"name": "solve", "seconds": 2.0, "iters": 12}

    def test_dump_load_round_trip(self, tmp_path):
        flight = FlightRecorder(capacity=2, label="worker-1", clock=FakeClock(3.0))
        flight.note("a", x=1)
        flight.note("b")
        flight.note("c")
        path = flight.dump(tmp_path / "f.json", "fault", context={"case": "k"})
        payload = load_flight_dump(path)
        assert payload["label"] == "worker-1"
        assert payload["reason"] == "fault"
        assert payload["context"] == {"case": "k"}
        assert payload["dropped"] == 1
        assert [e["kind"] for e in payload["entries"]] == ["b", "c"]

    def test_load_rejects_garbage_and_foreign_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ValidationError):
            load_flight_dump(bad)
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValidationError):
            load_flight_dump(foreign)

    def test_render_last_n(self, tmp_path):
        flight = FlightRecorder(label="server", clock=FakeClock())
        for i in range(4):
            flight.note("note", i=i)
        payload = load_flight_dump(flight.dump(tmp_path / "f.json", "test"))
        text = render_flight_dump(payload, last=2)
        assert "flight recorder: server" in text
        assert "i=2" in text and "i=3" in text
        assert "i=0" not in text

    def test_ambient_defaults_disabled_and_scopes(self):
        assert get_flight_recorder() is DISABLED_FLIGHT
        flight = FlightRecorder()
        with use_flight_recorder(flight):
            assert get_flight_recorder() is flight
            get_flight_recorder().note("inside")
        assert get_flight_recorder() is DISABLED_FLIGHT
        assert [e.kind for e in flight.entries()] == ["inside"]
        previous = set_flight_recorder(flight)
        try:
            assert previous is DISABLED_FLIGHT
        finally:
            set_flight_recorder(None)
        assert get_flight_recorder() is DISABLED_FLIGHT


# -- Prometheus exposition ---------------------------------------------------


class TestPrometheusText:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("gmres.solves").inc(3)
        registry.gauge("serving.queue_depth").set(2)
        registry.histogram("serving.scan_seconds").extend([1.0, 2.0, 3.0])
        text = prometheus_text(registry)
        assert "# TYPE gmres_solves counter" in text
        assert "gmres_solves 3" in text
        assert "# TYPE serving_queue_depth gauge" in text
        assert "# TYPE serving_scan_seconds summary" in text
        assert 'serving_scan_seconds{quantile="0.5"} 2' in text
        assert "serving_scan_seconds_sum 6" in text
        assert "serving_scan_seconds_count 3" in text

    def test_worker_labels_become_selectors(self):
        registry = MetricsRegistry()
        registry.gauge("gmres.last_residual[worker=0]").set(1e-8)
        text = prometheus_text(registry)
        assert 'gmres_last_residual{worker="0"} 1e-08' in text

    def test_write_is_parseable_from_disk(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = write_prometheus(registry, tmp_path / "metrics.prom")
        content = path.read_text()
        assert content.endswith("\n")
        assert "# TYPE c counter" in content


# -- multi-pid Chrome export -------------------------------------------------


class TestMultiPidChromeTrace:
    def test_server_and_worker_lanes(self):
        server = Tracer(clock=FakeClock(), process_label="server")
        case = server.open_span("serve.case")
        frame = _remote_frame([_span_dict(0, None, "scan", 100.0, 101.0)])
        graft_frame(server, frame, parent_span_id=case.record.span_id)
        case.close()
        doc = chrome_trace(server)
        meta = {
            e["pid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert len(meta) == 2
        assert "server" in meta.values()
        assert meta[4242] == "worker-0"
        lanes = {e["name"]: e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert lanes["scan"] == 4242
        assert lanes["serve.case"] != 4242

    def test_legacy_pid_zero_falls_back_to_default_lane(self):
        spans = [SpanRecord(0, None, "old", 0.0, 1.0, pid=0)]
        doc = chrome_trace(spans, process_name="repro")
        (meta,) = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        (span,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert span["pid"] == meta["pid"]
        assert meta["args"]["name"] == f"repro (pid {meta['pid']})"
