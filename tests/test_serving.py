"""Serving-layer tests: admission, scheduling, pool and server edges.

The cheap half exercises the control plane in-process (no solves): the
EWMA service estimator, verdict-based admission, queue-full rejection,
queued-deadline eviction, EDF ordering, affinity + single-flight worker
selection, and protocol validation. The expensive half runs real worker
processes on tiny phantom grids: pool-vs-serial bit-identical fields,
running-deadline termination, worker death mid-solve re-admitting via
the persistence journal, and the drain -> checkpoint -> resume
round-trip.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.core.config import PipelineConfig
from repro.imaging.phantom import make_neurosurgery_case
from repro.obs.budget import PAPER_STAGE_BUDGETS, SCAN_TOTAL, slo_summary
from repro.serving import (
    AdmissionQueue,
    CaseRequest,
    CaseResult,
    Scheduler,
    ServiceEstimator,
    SessionServer,
    SessionWorkerPool,
    ThroughputReport,
)
from repro.serving.soak import _audit, run_serial
from repro.util import ValidationError

SHAPE = (24, 24, 16)
CELL_MM = 8.0


@pytest.fixture(scope="module")
def patient():
    return make_neurosurgery_case(shape=SHAPE, shift_mm=5.0, seed=11)


@pytest.fixture(scope="module")
def intraop_scans(patient):
    second = make_neurosurgery_case(shape=SHAPE, shift_mm=4.0, seed=12)
    return [patient.intraop_mri, second.intraop_mri]


#: The SLO series a server records for healthy scans, lit or dark.
SLO_SERIES = {SCAN_TOTAL, "queue wait", "case service", *PAPER_STAGE_BUDGETS}


def assert_slo_counts_served_scans(server, results):
    """Each scan served, not restored, is one sample of every SLO series."""
    served = [r for result in results.values() for r in result.scans if not r.restored]
    assert server.metrics.value("serving.scans") == len(served)
    assert sorted(server.metrics.get("budget.scan_seconds").values) == sorted(
        r.seconds() for r in served
    )
    series = slo_summary(server.metrics)["series"]
    assert set(series) == SLO_SERIES
    for stage in PAPER_STAGE_BUDGETS:
        assert series[stage]["count"] == len(served)


def make_request(patient, scans, case_id="case-a", **kwargs):
    return CaseRequest(
        case_id=case_id,
        preop_mri=patient.preop_mri,
        preop_labels=patient.preop_labels,
        scans=list(scans),
        config=kwargs.pop("config", PipelineConfig(mesh_cell_mm=CELL_MM)),
        **kwargs,
    )


# -- protocol ----------------------------------------------------------------


class TestProtocol:
    def test_request_validation(self, patient):
        with pytest.raises(ValidationError, match="case_id"):
            make_request(patient, [patient.intraop_mri], case_id="")
        with pytest.raises(ValidationError, match="scans"):
            make_request(patient, [])
        with pytest.raises(ValidationError, match="deadline_s"):
            make_request(patient, [patient.intraop_mri], deadline_s=0.0)

    def test_result_status_validation(self):
        with pytest.raises(ValidationError, match="unknown status"):
            CaseResult(case_id="x", status="nope")

    def test_preop_key_identity(self, patient, intraop_scans):
        a = make_request(patient, intraop_scans, case_id="a")
        b = make_request(patient, intraop_scans[:1], case_id="b")
        # Same patient + config -> same key, regardless of the scans.
        assert a.preop_key() == b.preop_key()
        coarser = make_request(
            patient,
            intraop_scans,
            case_id="c",
            config=PipelineConfig(mesh_cell_mm=9.0),
        )
        assert coarser.preop_key() != a.preop_key()
        # Memoized: repeated calls return the identical string.
        assert a.preop_key() is a.preop_key()


# -- admission ---------------------------------------------------------------


class TestAdmission:
    def test_estimator_first_observation_then_ewma(self):
        est = ServiceEstimator(alpha=0.5)
        est.observe_scan(10.0)
        assert est.scan_seconds == 10.0
        est.observe_scan(20.0)
        assert est.scan_seconds == pytest.approx(15.0)
        est.observe_preop(8.0)
        assert est.case_seconds(n_scans=2, preop_cached=False) == pytest.approx(38.0)
        assert est.case_seconds(n_scans=2, preop_cached=True) == pytest.approx(30.0)

    def test_queue_full_rejects(self, patient, intraop_scans):
        queue = AdmissionQueue(capacity=1)
        ok, verdict, _ = queue.admit(make_request(patient, intraop_scans, case_id="a"))
        assert ok and verdict is not None and verdict.within_budget
        ok, verdict, detail = queue.admit(
            make_request(patient, intraop_scans, case_id="b")
        )
        assert not ok
        assert verdict is None
        assert "queue full" in detail

    def test_deadline_infeasible_rejects_with_verdict(self, patient, intraop_scans):
        est = ServiceEstimator()
        est.observe_preop(30.0)
        est.observe_scan(10.0)
        queue = AdmissionQueue(capacity=4, estimator=est)
        ok, verdict, detail = queue.admit(
            make_request(patient, intraop_scans, case_id="a", deadline_s=20.0),
            backlog_seconds=5.0,
        )
        assert not ok
        assert verdict is not None and not verdict.within_budget
        assert verdict.label.startswith("OVER")
        assert "exceeds deadline" in detail
        # The same case is feasible once its model is cached.
        ok, _, _ = queue.admit(
            make_request(patient, intraop_scans[:1], case_id="b", deadline_s=20.0),
            preop_cached=True,
        )
        assert ok

    def test_evict_expired_and_requeue_front(self, patient, intraop_scans):
        queue = AdmissionQueue(capacity=4)
        queue.admit(make_request(patient, intraop_scans, case_id="a", deadline_s=0.5))
        queue.admit(make_request(patient, intraop_scans, case_id="b"))
        now = time.monotonic() + 1.0
        expired = queue.evict_expired(now=now)
        assert [q.request.case_id for q in expired] == ["a"]
        assert [q.request.case_id for q in queue.items()] == ["b"]
        queue.requeue_front(make_request(patient, intraop_scans, case_id="c"))
        assert [q.request.case_id for q in queue.items()] == ["c", "b"]
        assert len(queue.clear()) == 2
        assert len(queue) == 0


# -- scheduling --------------------------------------------------------------


class _FakeWorker:
    def __init__(self, worker_id, dispatched=0, cached_keys=()):
        self.worker_id = worker_id
        self.dispatched = dispatched
        self.cached_keys = set(cached_keys)


class TestScheduler:
    def test_fifo_and_edf(self, patient, intraop_scans):
        queue = AdmissionQueue(capacity=4)
        queue.admit(make_request(patient, intraop_scans, case_id="late", deadline_s=60))
        queue.admit(make_request(patient, intraop_scans, case_id="soon", deadline_s=5))
        queue.admit(make_request(patient, intraop_scans, case_id="never"))
        assert Scheduler("fifo").next_index(queue.items()) == 0
        edf = Scheduler("deadline")
        assert queue.items()[edf.next_index(queue.items())].request.case_id == "soon"
        with pytest.raises(ValidationError, match="unknown scheduling policy"):
            Scheduler("lifo")

    def test_pick_worker_affinity_beats_load(self):
        light = _FakeWorker(0, dispatched=0)
        loaded_with_model = _FakeWorker(1, dispatched=5, cached_keys={"K"})
        sched = Scheduler()
        assert sched.pick_worker([light, loaded_with_model], "K") is loaded_with_model
        assert sched.pick_worker([light, loaded_with_model], "other") is light

    def test_single_flight_hold(self):
        idle = [_FakeWorker(0)]
        busy = [_FakeWorker(1, cached_keys={"K"})]
        sched = Scheduler()
        # Model being built on the busy worker: hold rather than rebuild.
        assert sched.should_hold(idle, busy, "K")
        # An idle worker already has it: dispatch there.
        assert not sched.should_hold([_FakeWorker(2, cached_keys={"K"})], busy, "K")
        # Nobody has it: this case becomes the builder.
        assert not sched.should_hold(idle, [_FakeWorker(1)], "K")


# -- server control plane (no solves) ----------------------------------------


class TestServerControlPlane:
    def test_queue_full_rejection_and_duplicate(self, patient, intraop_scans):
        server = SessionServer(n_workers=1, queue_capacity=1)
        try:
            assert server.submit(make_request(patient, intraop_scans, case_id="a")) is None
            rejected = server.submit(make_request(patient, intraop_scans, case_id="b"))
            assert rejected is not None
            assert rejected.status == "rejected"
            assert "queue full" in rejected.detail
            assert server.metrics.value("serving.rejected") == 1
            with pytest.raises(ValidationError, match="duplicate case_id"):
                server.submit(make_request(patient, intraop_scans, case_id="a"))
        finally:
            server.shutdown()

    def test_queued_deadline_eviction(self, patient, intraop_scans):
        server = SessionServer(n_workers=1)
        try:
            assert (
                server.submit(
                    make_request(patient, intraop_scans, case_id="a", deadline_s=0.05)
                )
                is None
            )
            time.sleep(0.1)
            server._evict_expired_queued()
            result = server.results["a"]
            assert result.status == "evicted"
            assert "expired" in result.detail
            assert server.metrics.value("serving.evicted") == 1
        finally:
            server.shutdown()

    def test_drain_before_dispatch_evicts_queued(self, patient, intraop_scans):
        server = SessionServer(n_workers=1)
        try:
            server.submit(make_request(patient, intraop_scans, case_id="a"))
            results = server.drain(timeout=30.0)
            assert results["a"].status == "evicted"
            assert "drained before dispatch" in results["a"].detail
            with pytest.raises(ValidationError, match="shut down"):
                server.submit(make_request(patient, intraop_scans, case_id="b"))
        finally:
            server.shutdown()


# -- full-stack serving (real worker processes) ------------------------------


class TestServing:
    def test_pool_matches_serial_bit_identical(self, patient, intraop_scans):
        requests = [
            make_request(patient, intraop_scans[:1], case_id="case-0"),
            make_request(patient, intraop_scans[1:], case_id="case-1"),
        ]
        _, serial = run_serial(
            [make_request(patient, r.scans, case_id=r.case_id) for r in requests]
        )
        server = SessionServer(n_workers=2)
        try:
            for request in requests:
                assert server.submit(request) is None
            results = server.run()
        finally:
            server.shutdown()
        assert all(results[r.case_id].ok for r in requests)
        pool_shas = {
            cid: [s.nodal_sha for s in results[cid].scans] for cid in serial
        }
        assert pool_shas == serial
        # Single-flight + affinity: the second same-patient case waits
        # for the builder worker and reuses its cached model.
        assert results["case-1"].preop_cache_hit
        assert results["case-1"].worker == results["case-0"].worker
        assert server.metrics.value("serving.preop_cache_hits") == 1
        assert server.metrics.value("serving.scans") == 2
        assert server.metrics.value("serving.throughput_scans_per_s") > 0

    def test_running_deadline_terminates_worker(self, patient, intraop_scans):
        server = SessionServer(n_workers=1)
        try:
            # Two scans of this patient take ~0.25 s with the build, under
            # the deadline; eight (~0.7 s) are still running when it passes.
            server.submit(
                make_request(patient, intraop_scans * 4, case_id="slow", deadline_s=0.3)
            )
            results = server.run()
            assert results["slow"].status == "evicted"
            assert "mid-service" in results["slow"].detail
            assert server.metrics.value("serving.evicted") == 1
        finally:
            server.shutdown()

    @pytest.mark.faults
    @pytest.mark.persistence
    def test_worker_death_readmits_via_journal(self, patient, intraop_scans, tmp_path):
        from repro.resilience import FaultPlan

        config = PipelineConfig(mesh_cell_mm=CELL_MM)
        config.fault_plan = FaultPlan.parse("1:crash-after=solve", seed=0)
        request = make_request(
            patient,
            intraop_scans,
            case_id="durable",
            config=config,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        baseline = make_request(patient, intraop_scans, case_id="durable")
        _, serial = run_serial([baseline])

        server = SessionServer(n_workers=1, max_attempts=2)
        try:
            assert server.submit(request) is None
            results = server.run()
        finally:
            server.shutdown()
        result = results["durable"]
        assert result.status == "completed", result.detail
        assert result.attempts == 2
        assert server.pool.deaths == 1
        assert server.metrics.value("serving.worker_deaths") == 1
        assert server.metrics.value("serving.readmitted") == 1
        # Scan 0 was committed before the crash and comes back from the
        # journal; scan 1 is recomputed on resume. Either way the fields
        # match an uninterrupted serial session bit-exactly.
        assert result.scans[0].restored
        assert not result.scans[1].restored
        assert [s.nodal_sha for s in result.scans] == serial["durable"]
        journal = (tmp_path / "ckpt" / "journal.jsonl").read_text()
        types = [json.loads(line)["type"] for line in journal.splitlines() if line.strip()]
        assert "crash" in types

    @pytest.mark.faults
    @pytest.mark.persistence
    def test_worker_death_exhausts_attempts(self, patient, intraop_scans, tmp_path):
        from repro.resilience import FaultPlan

        config = PipelineConfig(mesh_cell_mm=CELL_MM)
        config.fault_plan = FaultPlan.parse("0:crash-after=begin", seed=0)
        request = make_request(
            patient,
            intraop_scans[:1],
            case_id="doomed",
            config=config,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        server = SessionServer(n_workers=1, max_attempts=1)
        try:
            assert server.submit(request) is None
            results = server.run()
        finally:
            server.shutdown()
        assert results["doomed"].status == "failed"
        assert "re-admission budget exhausted" in results["doomed"].detail

    @pytest.mark.persistence
    def test_drain_checkpoint_roundtrip(self, patient, tmp_path):
        scans = [
            make_neurosurgery_case(shape=SHAPE, shift_mm=2.0 + s, seed=20 + s).intraop_mri
            for s in range(4)
        ]
        ckpt = tmp_path / "ckpt"
        request = make_request(
            patient, scans, case_id="draining", checkpoint_dir=str(ckpt)
        )
        _, serial = run_serial([make_request(patient, scans, case_id="draining")])

        pool = SessionWorkerPool(1)
        try:
            pool.dispatch(pool.idle_workers()[0], request)
            deadline = time.monotonic() + 300.0
            journal = ckpt / "journal.jsonl"
            while time.monotonic() < deadline:
                if journal.is_file() and '"commit"' in journal.read_text():
                    break
                time.sleep(0.02)
            else:
                pytest.fail("first scan never committed")
            drained = pool.drain(timeout=300.0)
        finally:
            pool.shutdown()
        assert len(drained) == 1
        assert drained[0].status == "drained"
        assert drained[0].checkpoint == str(ckpt)
        n_done = len(drained[0].scans)
        assert 1 <= n_done < len(scans)

        # Round-trip: re-submitting the same durable request resumes the
        # checkpoint; committed scans come back restored, the remainder
        # is recomputed, and the full field sequence matches an
        # uninterrupted serial session bit-exactly.
        server = SessionServer(n_workers=1)
        try:
            assert server.submit(request) is None
            results = server.run()
        finally:
            server.shutdown()
        resumed = results["draining"]
        assert resumed.ok, resumed.detail
        assert all(s.restored for s in resumed.scans[:n_done])
        assert [s.nodal_sha for s in resumed.scans] == serial["draining"]
        # The restored scans are not counted again: only the recomputed
        # remainder lands in the SLO series.
        assert_slo_counts_served_scans(server, results)
        assert server.metrics.value("serving.scans") == len(scans) - n_done


# -- cross-process telemetry through the serving tier ------------------------


class TestServingTelemetry:
    def test_unified_trace_metrics_and_slo(self, patient, intraop_scans):
        from repro.obs import load_flight_dump
        from repro.obs.export import chrome_trace

        server = SessionServer(n_workers=2)
        try:
            server.submit(make_request(patient, intraop_scans[:1], case_id="case-0"))
            server.submit(make_request(patient, intraop_scans[1:], case_id="case-1"))
            results = server.run()
        finally:
            server.shutdown()
        assert all(r.ok for r in results.values())

        # Every completed case shipped a telemetry frame home.
        assert server.metrics.value("telemetry.frames") == 2
        assert server.metrics.value("telemetry.frames_lost") == 0
        assert server.metrics.value("telemetry.spans_grafted") > 0

        # One trace: each serve.case span (server pid) parents the
        # worker's scan span (worker pid) — distinct processes.
        spans = server.tracer.finished()
        case_spans = [s for s in spans if s.name == "serve.case"]
        assert len(case_spans) == 2
        server_pid = os.getpid()
        for case in case_spans:
            assert case.pid == server_pid
            assert case.attrs["status"] == "completed"
            assert case.attrs["worker_spans"] > 0
            kids = server.tracer.children_of(case.span_id)
            scan_spans = [s for s in kids if s.name == "scan"]
            assert scan_spans, f"no scan span under {case.attrs['case_id']}"
            assert all(s.pid != server_pid for s in scan_spans)
            # Rebased onto the server clock: the worker's scan runs
            # inside its case span's lifetime.
            for scan in scan_spans:
                assert case.start <= scan.start and scan.end <= case.end

        # Perfetto export gets one labelled lane per process.
        labels = set(server.tracer.process_labels.values())
        assert "server" in labels
        assert any(label.startswith("worker-") for label in labels)
        doc = chrome_trace(server.tracer)
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert len(pids) >= 2

        # Worker-side metrics merged into the server registry.
        assert server.metrics.value("solver.solves") >= 2

        # The gateway wrote the SLO series from the records it served, one
        # sample per scan: paper-target series scored, serving-layer
        # series tracked unscored.
        assert_slo_counts_served_scans(server, results)
        series = slo_summary(server.metrics)["series"]
        assert series["biomechanical simulation"]["target"] == 10.0
        assert series["queue wait"]["target"] is None
        assert series["case service"]["target"] is None
        assert "Latency SLOs" in server.summary_table()

        # Workers spooled their flight rings after every scan.
        dumps = sorted(Path(server.flight_dir).glob("worker-*.json"))
        assert dumps
        entries = load_flight_dump(dumps[0])["entries"]
        assert "case.start" in {e["kind"] for e in entries}
        assert "scan.complete" in {e["kind"] for e in entries}

    def test_telemetry_off_serves_dark(self, patient, intraop_scans):
        server = SessionServer(n_workers=1, telemetry=False)
        request = make_request(patient, intraop_scans[:1], case_id="dark")
        try:
            server.submit(request)
            results = server.run()
        finally:
            server.shutdown()
        assert results["dark"].ok
        assert server.tracer is None
        # Dark serving skips the telemetry hooks, not the SLO series, and
        # the summary table and a soak report show them.
        assert_slo_counts_served_scans(server, results)
        assert "Latency SLOs" in server.summary_table()
        report = _audit(server, [request], ["dark"], [], 0.0, waves=1, peak_rss_mb=0.0)
        assert report.latency["series"]["scan total"]["count"] == 1
        assert results["dark"].telemetry is None
        assert results["dark"].flight_dump is None
        assert server.metrics.value("telemetry.frames") == 0

    @pytest.mark.faults
    @pytest.mark.persistence
    def test_killed_worker_leaves_flight_dump_and_annotated_span(
        self, patient, intraop_scans, tmp_path
    ):
        from repro.obs import load_flight_dump
        from repro.resilience import FaultPlan

        config = PipelineConfig(mesh_cell_mm=CELL_MM)
        config.fault_plan = FaultPlan.parse("1:crash-after=solve", seed=0)
        request = make_request(
            patient,
            intraop_scans,
            case_id="lost",
            config=config,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        server = SessionServer(n_workers=1, max_attempts=1)
        try:
            assert server.submit(request) is None
            results = server.run()
        finally:
            server.shutdown()
        result = results["lost"]
        assert result.status == "failed"

        # The worker died before shipping a frame: the loss is counted
        # and the case span is annotated, not broken.
        assert server.metrics.value("telemetry.frames_lost") == 1
        (case_span,) = [
            s for s in server.tracer.finished() if s.name == "serve.case"
        ]
        assert case_span.attrs["telemetry_lost"] is True
        assert case_span.attrs["status"] == "failed"
        events = {name for _, name, _ in case_span.events}
        assert "worker.death" in events

        # Scan 0 completed and spooled the flight ring before the kill:
        # the result names the post-mortem under the flight directory.
        assert result.flight_dump == "worker-0.json"
        payload = load_flight_dump(Path(server.flight_dir) / result.flight_dump)
        assert payload["label"] == "worker-0"
        kinds = [e["kind"] for e in payload["entries"]]
        assert "scan.complete" in kinds
        # The server's own control-plane ring was dumped on the death.
        server_dump = Path(server.flight_dir) / "server.json"
        assert server_dump.is_file()
        server_kinds = [
            e["kind"] for e in load_flight_dump(server_dump)["entries"]
        ]
        assert "serving.worker_death" in server_kinds


# -- bench report ------------------------------------------------------------


class TestThroughputReport:
    def test_report_math_and_serialization(self):
        report = ThroughputReport(
            n_cases=4,
            n_workers=4,
            scans_per_case=2,
            serial_seconds=100.0,
            pool_seconds=40.0,
            bit_identical=True,
            preop_cache_hits=3,
            shape=(32, 32, 24),
            mesh_cell_mm=3.0,
        )
        assert report.total_scans == 8
        assert report.speedup == pytest.approx(2.5)
        assert report.pool_scans_per_s == pytest.approx(0.2)
        payload = report.as_dict()
        assert payload["speedup"] == pytest.approx(2.5)
        assert payload["bit_identical"] is True
        assert "speedup" in report.table()
