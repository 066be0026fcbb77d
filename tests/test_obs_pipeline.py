"""End-to-end observability tests: traced multi-scan session, budget
verdicts in the session summary, Chrome export validity, trace-report
CLI, and the disabled tracer's pass-through to the bare solve."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import main
from repro.core.config import PipelineConfig
from repro.core.pipeline import IntraoperativePipeline
from repro.core.session import SurgicalSession
from repro.core.timeline import Timeline
from repro.imaging.phantom import make_neurosurgery_case
from repro.obs.budget import PAPER_STAGE_BUDGETS
from repro.obs.export import chrome_trace, iterations_per_decade, render_report, write_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, Tracer, use_tracer

SHAPE = (32, 32, 24)
FAST_CONFIG = dict(
    mesh_cell_mm=8.0, rigid_max_iter=1, rigid_samples=2000, surface_iterations=80
)


@pytest.fixture(scope="module")
def traced_session():
    """A fully-instrumented 3-scan session (tracer + metrics)."""
    cases = [
        make_neurosurgery_case(shape=SHAPE, shift_mm=s, seed=60 + i)
        for i, s in enumerate((3.0, 4.0, 5.0))
    ]
    tracer = Tracer()
    metrics = MetricsRegistry()
    pipeline = IntraoperativePipeline(
        PipelineConfig(**FAST_CONFIG), tracer=tracer, metrics=metrics
    )
    session = SurgicalSession.begin(pipeline, cases[0].preop_mri, cases[0].preop_labels)
    for case in cases:
        session.process(case.intraop_mri)
    return session, tracer, metrics


def _depth_of(span, by_id):
    depth = 0
    while span.parent_id is not None:
        span = by_id[span.parent_id]
        depth += 1
    return depth


class TestTracedSession:
    def test_three_scan_roots(self, traced_session):
        _, tracer, _ = traced_session
        scans = [s for s in tracer.roots() if s.name == "scan"]
        assert len(scans) == 3
        assert [s.attrs["index"] for s in scans] == [0, 1, 2]

    def test_spans_nest_at_least_three_levels(self, traced_session):
        _, tracer, _ = traced_session
        spans = tracer.finished()
        by_id = {s.span_id: s for s in spans}
        max_depth = max(_depth_of(s, by_id) for s in spans)
        # scan -> process_scan -> stage -> solver internals is depth 3+.
        assert max_depth >= 3
        deepest = max(spans, key=lambda s: _depth_of(s, by_id))
        chain = [deepest.name]
        cur = deepest
        while cur.parent_id is not None:
            cur = by_id[cur.parent_id]
            chain.append(cur.name)
        assert chain[-1] == "scan"  # rooted at the session scan span

    def test_stage_spans_parent_under_process_scan(self, traced_session):
        _, tracer, _ = traced_session
        spans = tracer.finished()
        by_id = {s.span_id: s for s in spans}
        stages = [s for s in spans if s.attrs.get("kind") == "stage"]
        assert stages
        intraop = [s for s in stages if s.attrs.get("period") == "intraoperative"]
        assert all(by_id[s.parent_id].name == "process_scan" for s in intraop)

    def test_solver_spans_carry_convergence_attrs(self, traced_session):
        _, tracer, _ = traced_session
        solver = [
            s
            for s in tracer.finished()
            if s.attrs.get("kind") == "solver" and s.name in ("gmres", "cg")
        ]
        assert solver and all(s.name == "cg" for s in solver)
        assert all("converged" in s.attrs for s in solver)
        with_restarts = [s for s in solver if s.events]
        for span in with_restarts:
            assert span.events[0][1] == "restart"
            assert "residual" in span.events[0][2]

    def test_solver_spans_carry_the_convergence_curve(self, traced_session):
        session, tracer, _ = traced_session
        solves = [
            s for s in tracer.finished() if s.name == "cg" and s.attrs["iterations"] > 0
        ]
        assert len(solves) == len(session.history)
        for span in solves:
            history, target = span.attrs["residual_history"], span.attrs["target"]
            assert len(history) > span.attrs["iterations"]
            assert history[-1] == span.attrs["residual"] <= target < history[0]
        solver = session.latest().simulation.solver
        assert solves[-1].attrs["residual_history"] == solver.history
        assert solves[-1].attrs["target"] == pytest.approx(
            solves[-1].attrs["tol"] * solver.rhs_norm
        )

    def test_report_prints_the_slope_not_the_curve(self, traced_session):
        _, tracer, _ = traced_session
        lines = [
            line
            for line in render_report(tracer).splitlines()
            if line.lstrip().startswith("cg")
            and "converged=" in line  # a span line, not the percentile footer
            and " iterations=0 " not in line  # nor the preoperative priming solve
        ]
        assert len(lines) == 3
        for line in lines:
            assert "residual_history" not in line
            assert re.search(r" iterations=\d+ iterations/decade=\d+(\.\d+)? ", line)

    def test_timeline_notes_the_convergence_rate(self, traced_session):
        session, _, _ = traced_session
        result = session.latest()
        solver = result.simulation.solver
        counts = result.record.counts("biomechanical simulation")
        assert counts["iterations"] == solver.iterations
        assert counts["it_per_decade"] == iterations_per_decade(
            solver.iterations, solver.history
        ) > 0
        assert counts["rel_residual"] == solver.residual_norm / solver.rhs_norm
        assert counts["rel_residual"] <= session.pipeline.config.solver_tol

    def test_chrome_export_is_valid_and_nested(self, traced_session, tmp_path):
        _, tracer, _ = traced_session
        path = tmp_path / "session.json"
        path.write_text(json.dumps(chrome_trace(tracer)))
        doc = json.loads(path.read_text())  # must round-trip as valid JSON
        assert "traceEvents" in doc
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        required = {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
        assert all(required <= set(e) for e in complete)
        names = {e["name"] for e in complete}
        assert {"scan", "process_scan", "biomechanical simulation"} <= names

    def test_scan_verdict_recorded_per_scan(self, traced_session):
        session, tracer, _ = traced_session
        # Every scan's verdict is read from its record, also an older one's.
        verdicts = [entry.record.verdict() for entry in session.history]
        assert [v.scan_index for v in verdicts] == [0, 1, 2]
        assert [v.label for v in verdicts] == ["ok"] * 3  # phantom scans fit
        for entry, verdict in zip(session.history, verdicts):
            assert verdict.total_seconds == pytest.approx(entry.record.seconds())
        processed = [s for s in tracer.finished() if s.name == "process_scan"]
        assert [s.attrs["budget"] for s in processed] == ["ok"] * 3
        summary = session.summary_table()
        assert "budget" in summary
        rows = [line for line in summary.splitlines() if line.lstrip()[:1].isdigit()]
        assert len(rows) == 3 and all(row.rstrip().endswith("ok") for row in rows)

    def test_summary_surfaces_cache_hit_ratio(self, traced_session):
        session, _, _ = traced_session
        summary = session.summary_table()
        assert "cache_hit_ratio:" in summary
        stats = session.latest().simulation.cache_stats
        assert stats.hits >= 1  # scans 2 and 3 reuse the precomputed context
        assert f"{stats.hit_ratio:.2f}" in summary

    def test_metrics_absorbed_solver_and_cache(self, traced_session):
        _, _, metrics = traced_session
        assert metrics.value("pipeline.scans") == 3
        assert metrics.value("solver.solves") == 3
        assert metrics.value("solver.iterations") > 0
        assert metrics.get("solver.iterations_per_solve").count == 3
        assert 0.0 <= metrics.value("solve_context.hit_ratio") <= 1.0
        assert metrics.value("mesh.nodes") > 0

    def test_render_report_shows_self_time_tree(self, traced_session):
        _, tracer, _ = traced_session
        report = render_report(tracer, title="Session report")
        assert "self (s)" in report
        assert "biomechanical simulation" in report
        # Stages are indented under their scan root.
        stage_line = next(
            l for l in report.splitlines() if "biomechanical simulation" in l
        )
        assert stage_line.startswith(" ")

    def test_trace_report_cli(self, traced_session, tmp_path, capsys):
        _, tracer, _ = traced_session
        path = write_jsonl(tracer, tmp_path / "session.jsonl")
        rc = main(["trace-report", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scan" in out and "self (s)" in out


class TestBudgetFlagsSlowStage:
    def test_artificially_slowed_stage_is_flagged(self, monkeypatch):
        """A stage past its budget gives a ``budget:`` note, a
        ``budget.warning`` event and an OVER verdict on the record. The
        1 ns budget is one any timed stage exceeds, so nothing sleeps."""
        monkeypatch.setitem(PAPER_STAGE_BUDGETS, "rigid registration", 1e-9)
        case = make_neurosurgery_case(shape=SHAPE, shift_mm=4.0, seed=70)
        tracer = Tracer()
        pipeline = IntraoperativePipeline(PipelineConfig(**FAST_CONFIG), tracer=tracer)
        preop = pipeline.prepare_preoperative(case.preop_mri, case.preop_labels)
        result = pipeline.process_scan(case.intraop_mri, preop)
        verdict = result.record.verdict()
        assert verdict.label == "OVER(rigid registration)"
        assert len(verdict.warnings) == 1 and "'rigid registration'" in verdict.warnings[0]
        assert [n for n in result.timeline.notes if n.startswith("budget:")] == [
            "budget: " + verdict.warnings[0]
        ]
        assert result.record.notes == result.timeline.notes
        (scan_span,) = [s for s in tracer.finished() if s.name == "process_scan"]
        assert scan_span.attrs["budget"] == verdict.label
        events = [attrs for _, name, attrs in scan_span.events if name == "budget.warning"]
        assert events == [{"scan": 0, "warning": verdict.warnings[0]}]

    def test_pipeline_with_tight_budget_reports_over(self, monkeypatch):
        """End-to-end: a pipeline whose simulation budget is impossibly
        tight marks the scan verdict OVER in the session summary."""
        monkeypatch.setitem(PAPER_STAGE_BUDGETS, "biomechanical simulation", 1e-6)
        case = make_neurosurgery_case(shape=SHAPE, shift_mm=4.0, seed=70)
        pipeline = IntraoperativePipeline(PipelineConfig(**FAST_CONFIG))
        session = SurgicalSession.begin(pipeline, case.preop_mri, case.preop_labels)
        result = session.process(case.intraop_mri)
        assert result.record.verdict().label == "OVER(biomechanical simulation)"
        assert "OVER(biomechanical simulation)" in session.summary_table()
        assert any("budget:" in n for n in result.timeline.notes)


class TestDisabledTracerOverhead:
    def test_disabled_tracer_solve_is_the_bare_solve_and_opens_no_span(self, monkeypatch):
        """Under the disabled ambient tracer ``gmres`` is ``_gmres`` on the
        shared no-op span: the same ``x`` and residual history bit for bit,
        and not one span asked for. Counts, not a wall-clock ratio: the
        overhead budget itself (< 5 % at full size) is ``BENCH_obs.json``'s,
        measured by ``benchmarks/test_obs_overhead.py``."""
        import numpy as np
        from scipy import sparse

        from repro.obs.trace import get_tracer
        from repro.solver.gmres import _gmres, gmres

        rng = np.random.default_rng(0)
        n = 400
        A = sparse.random(n, n, density=0.02, random_state=np.random.RandomState(0))
        A = (A + A.T + sparse.eye(n) * (n / 2.0)).tocsr()
        b = rng.normal(size=n)
        opened = []
        for method in ("span", "open_span"):
            real = getattr(Tracer, method)
            monkeypatch.setattr(
                Tracer, method,
                lambda self, name, *a, _real=real, **kw: opened.append(name) or _real(self, name, *a, **kw),
            )
        ambient = get_tracer()
        assert not ambient.enabled
        bare = _gmres(A, b, None, None, 1e-8, 30, 2000, False, NULL_SPAN)
        wrapped = gmres(A, b, tol=1e-8)
        assert opened == [] and ambient.spans == []
        assert np.array_equal(wrapped.x, bare.x)
        assert wrapped.history == bare.history and len(bare.history) > 1
        assert (wrapped.iterations, wrapped.restarts) == (bare.iterations, bare.restarts)

    def test_disabled_ambient_records_nothing_end_to_end(self):
        """The default run leaves the ambient (disabled) tracer empty."""
        from repro.obs.trace import get_tracer

        ambient = get_tracer()
        assert not ambient.enabled
        tl = Timeline()
        with tl.stage("x"):
            pass
        assert ambient.spans == []

    def test_use_tracer_makes_uninstrumented_code_traceable(self):
        """Code with no tracer parameter picks up the ambient tracer."""
        import numpy as np
        from scipy import sparse

        from repro.solver.gmres import gmres

        A = (sparse.eye(10) * 4.0).tocsr()
        tracer = Tracer()
        with use_tracer(tracer):
            gmres(A, np.ones(10))
        (span,) = tracer.finished()
        assert span.name == "gmres"
        assert span.attrs["converged"] is True
