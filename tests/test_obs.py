"""Unit tests for repro.obs: tracer, metrics registry, exporters, budget."""

from __future__ import annotations

import json

import pytest

from repro.fem.context import CacheStats
from repro.obs.budget import (
    PAPER_SCAN_BUDGET,
    PAPER_STAGE_BUDGETS,
    ScanVerdict,
    StageCheck,
)
from repro.obs.export import (
    chrome_trace,
    read_jsonl,
    render_report,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    DISABLED,
    NULL_SPAN,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)
from repro.solver.gmres import GMRESResult
from repro.util import ValidationError


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def tracer(clock):
    return Tracer(clock=clock)


class TestTracer:
    def test_nesting_records_parent_ids(self, tracer, clock):
        with tracer.span("a"):
            clock.t = 1.0
            with tracer.span("b"):
                clock.t = 2.0
                with tracer.span("c"):
                    clock.t = 3.0
        a, b, c = tracer.finished()
        assert (a.name, b.name, c.name) == ("a", "b", "c")
        assert a.parent_id is None
        assert b.parent_id == a.span_id
        assert c.parent_id == b.span_id
        assert a.duration == pytest.approx(3.0)
        assert c.duration == pytest.approx(1.0)

    def test_siblings_share_parent(self, tracer):
        with tracer.span("root"):
            with tracer.span("x"):
                pass
            with tracer.span("y"):
                pass
        root = tracer.roots()[0]
        kids = tracer.children_of(root.span_id)
        assert [k.name for k in kids] == ["x", "y"]

    def test_attrs_at_open_and_via_set(self, tracer):
        with tracer.span("solve", tol=1e-7) as span:
            span.set(iterations=42, converged=True)
        (record,) = tracer.finished()
        assert record.attrs == {"tol": 1e-7, "iterations": 42, "converged": True}

    def test_events_carry_timestamps(self, tracer, clock):
        with tracer.span("gmres") as span:
            clock.t = 0.5
            span.event("restart", cycle=0, residual=1.0)
            clock.t = 0.9
            span.event("restart", cycle=1, residual=0.1)
        (record,) = tracer.finished()
        assert [e[0] for e in record.events] == [0.5, 0.9]
        assert record.events[1][2]["residual"] == 0.1

    def test_disabled_returns_shared_null_span(self):
        t = Tracer(enabled=False)
        span = t.span("anything", tol=1.0)
        assert span is NULL_SPAN
        with span as s:
            s.set(x=1)
            s.event("e")
        assert t.finished() == []
        t.event("root-event")
        assert t.spans == []

    def test_exception_marks_error_attr(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        (record,) = tracer.finished()
        assert record.attrs["error"] == "ValueError"
        assert record.end is not None  # span still closed

    def test_root_event_becomes_zero_length_span(self, tracer, clock):
        clock.t = 2.0
        tracer.event("budget.warning", stage="solve")
        (record,) = tracer.finished()
        assert record.start == record.end == 2.0
        assert record.attrs["event"] is True
        assert record.attrs["stage"] == "solve"

    def test_current_tracks_innermost(self, tracer):
        assert tracer.current() is None
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
        assert tracer.current() is None

    def test_clear_drops_spans(self, tracer):
        with tracer.span("a"):
            pass
        tracer.clear()
        assert tracer.spans == []

    def test_threads_get_separate_stacks(self, tracer):
        import threading

        def worker():
            with tracer.span("worker-root"):
                pass

        with tracer.span("main-root"):
            t = threading.Thread(target=worker, name="w0")
            t.start()
            t.join()
        roots = tracer.roots()
        # The worker's span is a root (its own stack), not nested under main.
        assert sorted(r.name for r in roots) == ["main-root", "worker-root"]
        threads = {r.thread for r in tracer.finished()}
        assert "w0" in threads

    def test_ambient_defaults_to_disabled(self):
        assert get_tracer() is DISABLED
        assert not get_tracer().enabled

    def test_use_tracer_scopes_and_restores(self, tracer):
        assert get_tracer() is DISABLED
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert get_tracer() is tracer
        assert get_tracer() is DISABLED

    def test_set_tracer_none_restores_disabled(self, tracer):
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert previous is DISABLED
        assert get_tracer() is DISABLED


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        m = MetricsRegistry()
        m.counter("hits").inc()
        m.counter("hits").inc(4)
        assert m.value("hits") == 5

    def test_counter_rejects_decrease(self):
        m = MetricsRegistry()
        with pytest.raises(ValidationError):
            m.counter("hits").inc(-1)

    def test_gauge_last_write_wins(self):
        m = MetricsRegistry()
        m.gauge("residual").set(1.0)
        m.gauge("residual").set(0.25)
        assert m.value("residual") == 0.25

    def test_histogram_summary(self):
        m = MetricsRegistry()
        h = m.histogram("seconds")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.summary() == {
            "count": 3,
            "sum": 6.0,
            "min": 1.0,
            "max": 3.0,
            "mean": 2.0,
            "p50": 2.0,
            "p95": pytest.approx(2.9),
            "p99": pytest.approx(2.98),
        }

    def test_kind_conflict_raises(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(ValidationError):
            m.gauge("x")

    def test_value_of_histogram_raises(self):
        m = MetricsRegistry()
        m.histogram("h").observe(1.0)
        with pytest.raises(ValidationError):
            m.value("h")

    def test_value_default_when_absent(self):
        assert MetricsRegistry().value("missing", default=-1.0) == -1.0

    def test_as_dict_mixes_kinds(self):
        m = MetricsRegistry()
        m.counter("c").inc(2)
        m.gauge("g").set(7)
        m.histogram("h").observe(1.0)
        d = m.as_dict()
        assert d["c"] == 2
        assert d["g"] == 7
        assert d["h"]["count"] == 1

    def test_record_cache_stats_uses_gauges(self):
        m = MetricsRegistry()
        stats = CacheStats(hits=3, misses=1, invalidations=1)
        m.record_cache_stats(stats)
        m.record_cache_stats(stats)  # re-recording must not double-count
        assert m.value("solve_context.hits") == 3
        assert m.value("solve_context.misses") == 1
        assert m.value("solve_context.hit_ratio") == pytest.approx(0.75)

    def test_record_solver_result(self):
        import numpy as np

        m = MetricsRegistry()
        ok = GMRESResult(np.zeros(3), True, 12, 2, 1e-9, [1.0, 1e-9])
        bad = GMRESResult(np.zeros(3), False, 30, 3, 1e-2, [1.0])
        m.record_solver_result(ok)
        m.record_solver_result(bad)
        assert m.value("gmres.solves") == 2
        assert m.value("gmres.iterations") == 42
        assert m.value("gmres.failures") == 1
        assert m.value("gmres.last_residual") == pytest.approx(1e-2)
        assert m.get("gmres.iterations_per_solve").values == [12.0, 30.0]


class TestCacheStatsHitRatio:
    def test_ratio(self):
        assert CacheStats(hits=3, misses=1).hit_ratio == pytest.approx(0.75)

    def test_zero_lookups(self):
        assert CacheStats().hit_ratio == 0.0

    def test_as_dict_includes_ratio(self):
        d = CacheStats(hits=1, misses=1).as_dict()
        assert d["hit_ratio"] == pytest.approx(0.5)


def _traced_tree(clock):
    """Tracer with a known 3-level tree and one event, on a fake clock."""
    tracer = Tracer(clock=clock)
    with tracer.span("scan", kind="session"):
        clock.t = 1.0
        with tracer.span("solve", kind="stage") as solve:
            clock.t = 1.5
            solve.event("restart", cycle=0, residual=0.5)
            with tracer.span("gmres", kind="solver", tol=1e-7):
                clock.t = 3.0
        clock.t = 4.0
    return tracer


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path, clock):
        tracer = _traced_tree(clock)
        path = write_jsonl(tracer, tmp_path / "trace.jsonl")
        spans = read_jsonl(path)
        assert [s.name for s in spans] == ["scan", "solve", "gmres"]
        original = tracer.finished()
        for a, b in zip(original, spans):
            assert a.span_id == b.span_id
            assert a.parent_id == b.parent_id
            assert a.start == b.start and a.end == b.end
            assert a.attrs == b.attrs
        assert spans[1].events[0][1] == "restart"

    def test_jsonl_meta_line(self, tmp_path, clock):
        path = write_jsonl(_traced_tree(clock), tmp_path / "t.jsonl")
        first = json.loads(path.read_text().splitlines()[0])
        assert first["type"] == "meta"
        assert first["format"] == "repro-trace"
        assert first["n_spans"] == 3

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text("not json at all\n")
        with pytest.raises(ValidationError):
            read_jsonl(p)

    def test_read_jsonl_rejects_foreign_format(self, tmp_path):
        p = tmp_path / "foreign.jsonl"
        p.write_text(json.dumps({"type": "meta", "format": "other"}) + "\n")
        with pytest.raises(ValidationError):
            read_jsonl(p)

    def test_chrome_trace_structure(self, clock):
        doc = chrome_trace(_traced_tree(clock))
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata
        complete = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["scan", "solve", "gmres"]
        scan = complete[0]
        assert scan["ts"] == 0.0  # relative to trace origin
        assert scan["dur"] == pytest.approx(4.0e6)  # microseconds
        instants = [e for e in events if e["ph"] == "i"]
        assert instants[0]["name"] == "restart"
        assert instants[0]["ts"] == pytest.approx(1.5e6)

    def test_chrome_trace_is_valid_json_on_disk(self, tmp_path, clock):
        path = write_chrome_trace(_traced_tree(clock), tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc
        for event in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)

    def test_chrome_trace_coerces_odd_attr_values(self, clock):
        import numpy as np

        tracer = Tracer(clock=clock)
        with tracer.span("s", arr=np.float64(2.0), obj=object()):
            clock.t = 1.0
        doc = chrome_trace(tracer)
        args = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]["args"]
        json.dumps(args)  # must not raise
        assert args["arr"] == 2.0

    def test_render_report_tree_and_self_time(self, clock):
        text = render_report(_traced_tree(clock), title="Report")
        lines = text.splitlines()
        assert lines[0] == "Report"
        scan_line = next(l for l in lines if l.startswith("scan"))
        solve_line = next(l for l in lines if l.lstrip().startswith("solve"))
        gmres_line = next(l for l in lines if l.lstrip().startswith("gmres"))
        # Indentation encodes depth.
        assert solve_line.startswith("  solve")
        assert gmres_line.startswith("    gmres")
        # scan: total 4.0, child (solve, 1.0..3.0) 2.0 -> self 2.0.
        assert "4.0000" in scan_line and "2.0000" in scan_line
        # solve: total 2.0, child (gmres, 1.5..3.0) 1.5 -> self 0.5.
        assert "0.5000" in solve_line
        assert "events=1" in solve_line
        assert "tol=1e-07" in gmres_line

    def test_render_report_min_seconds_prunes(self, clock):
        text = render_report(_traced_tree(clock), min_seconds=2.0)
        assert "gmres" not in text  # 1.5 s subtree pruned
        assert "solve" in text

    def test_render_report_empty(self):
        assert render_report(Tracer()) == "(empty trace)"

    def test_render_report_orphan_parent_treated_as_root(self, tmp_path, clock):
        tracer = _traced_tree(clock)
        spans = tracer.finished()[1:]  # drop "scan": "solve" is now an orphan
        text = render_report(spans)
        assert text.splitlines()[2].startswith("solve")  # rendered at depth 0


class TestScanVerdict:
    """``ScanVerdict.of``: a scan's ``(stage, seconds)`` pairs judged against
    the paper budgets. Pure data in, verdict out: nothing sleeps."""

    def test_within_budget_scan(self):
        verdict = ScanVerdict.of(
            [("rigid registration", 5.0), ("biomechanical simulation", 8.0)], scan=3
        )
        assert verdict.within_budget
        assert verdict.label == "ok"
        assert verdict.warnings == []
        assert verdict.scan_index == 3
        assert verdict.headroom_seconds == pytest.approx(PAPER_SCAN_BUDGET - 13.0)

    def test_flags_artificially_slowed_stage(self):
        verdict = ScanVerdict.of([("biomechanical simulation", 25.0)], 0)
        assert not verdict.within_budget
        assert verdict.label == "OVER(biomechanical simulation)"
        assert verdict.warnings == [
            "stage 'biomechanical simulation' exceeded its budget: 25.00 s > 10.00 s"
        ]
        assert [c.over for c in verdict.checks] == [True]

    def test_scan_total_exhaustion_without_stage_overrun(self):
        verdict = ScanVerdict.of([("a", 100.0), ("b", 100.0)], 0)
        assert verdict.scan_over and not verdict.over_stages
        assert verdict.label == "OVER(scan total)"
        assert verdict.warnings == ["scan budget exhausted after 'b': 200.00 s > 180.00 s"]

    def test_scan_total_exhaustion_warns_once(self):
        verdict = ScanVerdict.of([(s, 60.0) for s in ("a", "b", "c", "d")], 0)
        # Only the stage whose total first crosses the budget warns.
        assert verdict.warnings == ["scan budget exhausted after 'd': 240.00 s > 180.00 s"]
        verdict = ScanVerdict.of([(s, 100.0) for s in ("a", "b", "c", "d")], 0)
        assert len(verdict.warnings) == 1 and "after 'b'" in verdict.warnings[0]

    def test_stage_overrun_that_exhausts_the_scan_warns_twice(self):
        verdict = ScanVerdict.of([("biomechanical simulation", 185.0)], 0)
        assert verdict.label == "OVER(biomechanical simulation, scan total)"
        assert verdict.warnings == [
            "stage 'biomechanical simulation' exceeded its budget: 185.00 s > 10.00 s",
            "scan budget exhausted after 'biomechanical simulation': 185.00 s > 180.00 s",
        ]

    def test_unbudgeted_stage_counts_toward_total_only(self):
        verdict = ScanVerdict.of([("mystery stage", 170.0), ("rigid registration", 5.0)], 0)
        assert verdict.checks[0].budget is None
        assert not verdict.checks[0].over
        assert verdict.total_seconds == 175.0
        assert verdict.within_budget
        verdict = ScanVerdict.of([("mystery stage", 181.0)], 0)
        assert verdict.label == "OVER(scan total)"

    def test_paper_defaults(self):
        assert PAPER_STAGE_BUDGETS["biomechanical simulation"] == 10.0
        assert PAPER_SCAN_BUDGET == 180.0
        verdict = ScanVerdict.of([("visualization resample", 5.5)], 0)
        assert verdict.label == "OVER(visualization resample)"
        assert verdict.scan_budget == PAPER_SCAN_BUDGET


class TestTimelineObsIntegration:
    def test_stage_records_span_on_timeline_tracer(self):
        from repro.core.timeline import Timeline

        tracer = Tracer()
        tl = Timeline(tracer=tracer)
        with tl.stage("rigid registration"):
            pass
        (record,) = tracer.finished()
        assert record.name == "rigid registration"
        assert record.attrs["kind"] == "stage"
        assert record.attrs["period"] == "intraoperative"

    def test_timeline_as_table_empty(self):
        from repro.core.timeline import Timeline

        table = Timeline().as_table()
        assert "TOTAL (intraoperative)" in table  # only the total row

    def test_timeline_total_unknown_period_is_zero(self):
        from repro.core.timeline import Timeline

        tl = Timeline()
        tl.add("x", 2.0)
        assert tl.total("postoperative") == 0.0

    def test_timeline_as_gantt_all_zero_durations(self):
        from repro.core.timeline import Timeline

        tl = Timeline()
        tl.add("instant", 0.0)
        assert tl.as_gantt() == "(empty timeline)"  # total is zero

    def test_timeline_as_table_zero_duration_stage(self):
        from repro.core.timeline import Timeline

        tl = Timeline()
        tl.add("instant", 0.0)
        table = tl.as_table()
        assert "instant" in table
