"""Memory that stops growing: bounded stores and what they tell their readers.

A worker keeps its last few patient models and reports which; a session
keeps one scan's dense fields and a summary of the rest; the front-end
keeps a few uploads and publishes only what just became terminal. Each
bound is checked where it bites — resident set, ``tracemalloc``, the
parent's view of a worker — and each summary against the thing it
replaced.
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import re
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.pipeline import IntraoperativePipeline, IntraoperativeResult
from repro.core.session import SurgicalSession
from repro.imaging.phantom import make_neurosurgery_case
from repro.persist import ScanSummary, SessionStore, replay_session
from repro.serving import (
    CaseRequest,
    CaseResult,
    NetClient,
    NetworkFrontEnd,
    SessionServer,
    SessionWorkerPool,
    ShardGateway,
    transport,
)
from repro.resilience import DegradationLevel, FaultPlan
from repro.serving import pool as pool_module
from repro.serving.pool import PreopCacheReport, WorkerHandle
from repro.serving.scheduler import Scheduler
from repro.util import ValidationError
from repro.util.memory import LRUStore, reachable_array_bytes

SHAPE = (24, 24, 16)
FAST = dict(
    mesh_cell_mm=8.0,
    rigid_levels=1,
    rigid_max_iter=1,
    rigid_samples=1500,
    surface_iterations=40,
    prototypes_per_class=15,
)


# -- the one LRU type ----------------------------------------------------------


class TestLRUStore:
    def test_evicts_least_recently_used_never_the_key_just_put(self):
        store = LRUStore(2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # touch: "b" is now the oldest
        store.put("c", 3)
        assert store.keys() == ["a", "c"] and store.evictions == 1
        assert "b" not in store and store.get("b") is None
        store.put("d", 4)
        assert store.keys() == ["c", "d"] and len(store) == 2
        store.put("c", 5)  # a refresh evicts nothing
        assert store.keys() == ["d", "c"] and store.evictions == 2

    def test_contains_and_keys_do_not_touch(self):
        store = LRUStore(2)
        store.put("a", 1)
        store.put("b", 2)
        assert "a" in store and store.keys() == ["a", "b"]
        store.put("c", 3)
        assert store.keys() == ["b", "c"]

    def test_capacity_validated(self):
        with pytest.raises(ValidationError, match="capacity"):
            LRUStore(0)

    def test_defined_once_and_the_guesses_it_replaced_are_gone(self):
        sources = {
            path.name: path.read_text()
            for path in Path(transport.__file__).parents[1].rglob("*.py")
        }
        lru_types = [
            name for name, text in sources.items() if re.search(r"^class \w*LRU", text, re.M)
        ]
        assert lru_types == ["memory.py"]
        for name in ("pool.py", "transport.py"):
            assert "LRUStore(" in sources[name]
        for leftover in ("_known_keys", "_published"):
            assert not [n for n, text in sources.items() if leftover in text], leftover


# -- the parent's view of a worker's cache -------------------------------------


class _StubProcess:
    pids = itertools.count(1)

    def __init__(self):
        self.alive = True
        self.pid = next(self.pids)

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        pass


class _StubRequest:
    n_scans = 1

    def __init__(self, case_id, key):
        self.case_id = case_id
        self._key = key

    def preop_key(self):
        return self._key


class _StubPool(SessionWorkerPool):
    """The real pool bookkeeping over workers that are plain objects.

    ``truth[worker_id]`` is the cache the worker process would hold: it
    changes only while the worker serves a message, which the test does
    at the ``result`` step, through the same ``get`` / ``put`` calls as
    ``_serve_case``.
    """

    def _spawn(self, worker_id):
        self.__dict__.setdefault("truth", {})[worker_id] = LRUStore(
            pool_module.PREOP_CACHE_MODELS
        )
        self.heartbeats[worker_id] = time.monotonic()
        return WorkerHandle(worker_id, process=_StubProcess(), task_queue=queue.Queue())

    def serve(self, handle):
        """The worker side of one dispatched case; returns its in-hand key."""
        cache, key = self.truth[handle.worker_id], handle.busy.preop_key()
        if cache.get(key) is None:
            cache.put(key, object())
        report = PreopCacheReport(
            tuple(cache.keys()), cache.evictions, 0, handle.process.pid
        )
        result = CaseResult(case_id=handle.busy.case_id, status="completed")
        self.result_queue.put(("result", handle.worker_id, result, report))
        return key

    def will_hold(self, handle) -> set:
        """The keys the worker's cache holds once it has served its case."""
        after = LRUStore(pool_module.PREOP_CACHE_MODELS)
        for key in self.truth[handle.worker_id].keys():
            after.put(key, None)
        if handle.busy is not None and after.get(handle.busy.preop_key()) is None:
            after.put(handle.busy.preop_key(), None)
        return set(after.keys())


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("dispatch"), st.integers(0, 2), st.integers(0, 7)),
        st.tuples(st.just("result"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("death"), st.integers(0, 2), st.just(0)),
    ),
    max_size=60,
)


class TestParentSeesWorkerTruth:
    @settings(max_examples=150, deadline=None)
    @given(ops=OPS, bound=st.integers(1, 3))
    def test_resident_bounded_in_hand_kept_parent_equals_truth(self, ops, bound):
        with mock.patch.object(
            pool_module, "PREOP_CACHE_MODELS", bound
        ), mock.patch.object(pool_module, "RESPAWN_BASE_S", 0.0):
            self.check(ops, bound)

    def check(self, ops, bound):
        pool = _StubPool(3, drain_dir="unused")
        pool.result_queue = queue.Queue()
        scheduler = Scheduler()
        for n, (op, worker_id, patient) in enumerate(ops):
            handle = pool._handle(worker_id)
            if op == "dispatch" and handle.idle:
                key = f"patient-{patient}"
                idle, busy = pool.idle_workers(), pool.busy_workers()
                if scheduler.should_hold(idle, busy, key):
                    # Held for a busy worker that will have the model when
                    # it reports: never for one that evicted it, nor for
                    # one whose build in hand is about to.
                    assert any(key in pool.will_hold(w) for w in busy)
                chosen = scheduler.pick_worker(idle, key)
                if key in chosen.cached_keys:  # routed by affinity
                    assert key in pool.truth[chosen.worker_id]
                pool.dispatch(handle, _StubRequest(f"case-{n}", key))
                assert key in handle.cached_keys
            elif op == "result" and not handle.idle:
                in_hand = pool.serve(handle)
                (result,) = pool.poll_results(timeout=0.0)
                truth = pool.truth[worker_id]
                assert len(truth) <= bound
                assert in_hand in truth
                assert handle.idle and result.case_id.startswith("case-")
                assert handle.cache.evictions == truth.evictions
            elif op == "death":
                last_words = not handle.idle
                if last_words:  # its reply is in flight when it dies
                    pool.serve(handle)
                handle.process.alive = False
                pool.reap()
                pool.maintain()  # a crash-looping slot respawns after its backoff
                reborn = pool._handle(worker_id)
                assert reborn is not handle and len(pool.truth[worker_id]) == 0
                if last_words:
                    # The dead process's report describes a cache that is
                    # gone: the respawned slot stays empty in the parent.
                    assert len(pool.poll_results(timeout=0.0)) == 1
                    assert reborn.cache == PreopCacheReport()
            # The parent's view of every worker, busy or idle, is what that
            # worker's next report will say.
            for worker in pool.workers:
                assert worker.cached_keys == pool.will_hold(worker)

    def test_a_case_is_not_held_for_the_model_a_build_in_hand_evicts(self):
        bound = pool_module.PREOP_CACHE_MODELS
        pool = _StubPool(2, drain_dir="unused")
        pool.result_queue = queue.Queue()
        busy, idle = pool.workers
        for n in range(bound):  # fill worker 0: patient-0 is its coldest
            pool.dispatch(busy, _StubRequest(f"warm-{n}", f"patient-{n}"))
            pool.serve(busy)
            pool.poll_results(timeout=0.0)
        assert busy.cache.resident[0] == "patient-0" and len(busy.cached_keys) == bound
        pool.dispatch(busy, _StubRequest("new", "patient-new"))
        assert "patient-0" not in busy.cached_keys
        scheduler = Scheduler()
        assert not scheduler.should_hold([idle], [busy], "patient-0")
        assert scheduler.should_hold([idle], [busy], "patient-1")
        assert scheduler.should_hold([idle], [busy], "patient-new")
        # A hit touches, evicts nothing, and the parent says so.
        pool.serve(busy)
        pool.poll_results(timeout=0.0)
        pool.dispatch(busy, _StubRequest("again", "patient-2"))
        assert busy.cached_keys == set(busy.cache.resident)

    def test_bound(self):
        assert pool_module.PREOP_CACHE_MODELS == 4


# -- what a session holds --------------------------------------------------------


@pytest.fixture(scope="module")
def case():
    return make_neurosurgery_case(shape=SHAPE, shift_mm=4.0, seed=31)


@pytest.fixture(scope="module")
def scans(case):
    others = [
        make_neurosurgery_case(shape=SHAPE, shift_mm=s, seed=32 + i).intraop_mri
        for i, s in enumerate((2.0, 3.0, 5.0))
    ]
    return [case.intraop_mri, *others]


@pytest.fixture(scope="module")
def four_scans(case, scans):
    """A 4-scan in-memory session and the full results it returned."""
    pipeline = IntraoperativePipeline(PipelineConfig(**FAST))
    session = SurgicalSession.begin(pipeline, case.preop_mri, case.preop_labels)
    results = [session.process(scan) for scan in scans]
    return session, results


def unslimmed(session, results) -> SurgicalSession:
    """The same session as it was before summaries: every full result kept."""
    return SurgicalSession(
        pipeline=session.pipeline,
        preop=session.preop,
        history=list(results),
        _prototypes=session._prototypes,
    )


class TestSessionHoldsOneScan:
    def test_history_is_summaries_then_the_latest_result(self, four_scans):
        session, results = four_scans
        *older, latest = session.history
        assert latest is results[-1] and session.latest() is latest
        assert all(isinstance(entry, ScanSummary) for entry in older)
        for scan, (entry, result) in enumerate(zip(older, results)):
            assert entry.record.scan == scan and not entry.record.restored
            assert entry.nodal_displacement is result.nodal_displacement
            assert entry.grid_displacement is None  # a function of the nodal field
            assert np.array_equal(
                entry.grid_on(session.preop), result.grid_displacement
            )
            assert entry.degradation is result.degradation
            assert reachable_array_bytes(entry) == result.nodal_displacement.nbytes

    def test_summary_table_is_character_identical(self, four_scans):
        session, results = four_scans
        assert session.summary_table() == unslimmed(session, results).summary_table()

    def test_rederived_grid_is_checked_against_its_digest(self, four_scans):
        session, _ = four_scans
        entry = session.history[0]
        tampered = ScanSummary(
            record=entry.record, nodal_displacement=entry.nodal_displacement + 1e-9
        )
        with pytest.raises(ValidationError, match="does not match its record"):
            tampered.grid_on(session.preop)

    @pytest.mark.persistence
    def test_posthoc_checkpoint_commits_the_same_records(self, four_scans, tmp_path):
        session, results = four_scans
        twin = unslimmed(session, results)
        root = session.checkpoint(tmp_path / "slim")
        twin_root = twin.checkpoint(tmp_path / "full")
        # checkpoint() attached a store; leave the shared fixture as it was.
        session.store = None
        committed = SessionStore.open(root).committed()
        assert [r.as_dict() for r in committed] == [
            r.as_dict() for r in SessionStore.open(twin_root).committed()
        ]
        assert [r.grid_sha for r in committed[:-1]] == [
            entry.record.grid_sha for entry in session.history[:-1]
        ]
        resumed = [
            SurgicalSession.resume(IntraoperativePipeline(PipelineConfig(**FAST)), r)
            for r in (root, twin_root)
        ]
        assert resumed[0].summary_table() == resumed[1].summary_table()
        assert "restored" in resumed[0].summary_table()
        *older, latest = resumed[0].history
        assert all(isinstance(e, ScanSummary) and e.record.restored for e in older)
        assert isinstance(latest, IntraoperativeResult) and latest.record.restored

    @pytest.mark.parametrize(
        "faults",
        [None, ";".join(f"{scan}:scan-nan=0.5" for scan in range(8, 20))],
        ids=["healthy", "degraded"],
    )
    def test_twenty_scans_hold_one_scans_dense_fields(self, faults):
        # A coarse mesh under a finer volume, as at the paper's size: the
        # nodal field a summary keeps (~26 kB here) is small next to a
        # scan's dense fields. Degraded, scans 8-19 are unusable and each
        # re-applies the field of the scan before it.
        shape = (32, 32, 24)
        patient = make_neurosurgery_case(shape=shape, shift_mm=4.0, seed=51)
        pair = [
            patient.intraop_mri,
            make_neurosurgery_case(shape=shape, shift_mm=3.0, seed=52).intraop_mri,
        ]
        plan = None if faults is None else FaultPlan.parse(faults, seed=3)
        pipeline = IntraoperativePipeline(
            PipelineConfig(**{**FAST, "mesh_cell_mm": 10.0}, fault_plan=plan)
        )
        session = SurgicalSession.begin(pipeline, patient.preop_mri, patient.preop_labels)
        # deformed MRI + grid displacement (float64) + segmentation (int16)
        dense_fields = int(np.prod(shape)) * (8 + 24 + 2)
        held = {}
        tracemalloc.start()
        try:
            for index in range(20):
                session.process(pair[index % 2])
                if index + 1 in (8, 20):
                    held[index + 1] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert session.n_scans == 20
        degraded = [e.record.degradation == "previous-field" for e in session.history[:-1]]
        assert degraded == [faults is not None and scan >= 8 for scan in range(19)]
        # Unslimmed, twelve more scans hold twelve more sets of dense fields.
        assert held[20] - held[8] < dense_fields, held
        assert 12 * session.history[0].nodal_displacement.nbytes < dense_fields / 2

    def test_a_fallback_grid_is_kept_only_when_nothing_gives_it_back(self, case, scans, tmp_path):
        # Scan 1 coarse-FEM, 2 re-applies it, 3 healthy, 4 re-applies that.
        plan = FaultPlan.parse("1:stagnate-solver;2:scan-nan=0.5;4:scan-nan=0.5", seed=7)
        pipeline = IntraoperativePipeline(PipelineConfig(**FAST, fault_plan=plan))
        session = SurgicalSession.begin(pipeline, case.preop_mri, case.preop_labels)
        results = [session.process(scans[i % len(scans)]) for i in range(6)]
        levels = [r.degradation.level for r in results]
        assert levels[1] is DegradationLevel.COARSE_FEM
        assert levels[2] is levels[4] is DegradationLevel.PREVIOUS_FIELD
        assert levels[0] is levels[3] is levels[5] is DegradationLevel.FULL_FEM

        def check(history, preop):
            kept = [entry.grid_displacement for entry in history[:5]]
            # Solved on another mesh: not a function of the fine nodal field.
            assert kept[1] is not None and kept[2] is kept[1]
            assert kept[0] is kept[3] is kept[4] is None
            for entry, result in zip(history[:5], results):
                assert np.array_equal(entry.grid_on(preop), result.grid_displacement)

        check(session.history, session.preop)
        root = session.checkpoint(tmp_path / "ckpt")
        resumed = SurgicalSession.resume(
            IntraoperativePipeline(PipelineConfig(**FAST)), root
        )
        check(resumed.history, resumed.preop)
        assert resumed.summary_table().count("previous-field") == 2

    def test_a_scans_fields_are_hashed_once(self, case, scans, tmp_path, monkeypatch):
        # ... and its record built once: the commit, the summary, the
        # served reply and every summary_table() read the same one.
        from repro.core import pipeline as pipeline_module
        from repro.persist import ScanRecord

        hashed, built = [], []
        real = pipeline_module.checksum_array
        monkeypatch.setattr(
            pipeline_module, "checksum_array", lambda a: hashed.append(1) or real(a)
        )
        of = ScanRecord.of
        monkeypatch.setattr(
            ScanRecord, "of", classmethod(lambda cls, r: built.append(r.scan) or of(r))
        )
        pipeline = IntraoperativePipeline(PipelineConfig(**FAST))
        session = SurgicalSession.begin(
            pipeline, case.preop_mri, case.preop_labels, checkpoint_dir=tmp_path / "ckpt"
        )
        for scan in scans[:3]:
            result = session.process(scan)  # commits, summarizes the scan before
            session.summary_table()
            record = result.record  # what a worker replies with
            session.summary_table()
            assert (record.nodal_sha, record.grid_sha) == result.field_shas()
        assert len(hashed) == 2 * 3  # the nodal and the grid field of each scan
        assert built == [0, 1, 2]
        assert [r.grid_sha for r in session.store.committed()] == [
            e.record.grid_sha for e in session.history
        ]

    @pytest.mark.persistence
    def test_durable_session_replays_bit_exact(self, case, scans, tmp_path):
        pipeline = IntraoperativePipeline(PipelineConfig(**FAST))
        session = SurgicalSession.begin(
            pipeline, case.preop_mri, case.preop_labels, checkpoint_dir=tmp_path / "ckpt"
        )
        for scan in scans[:3]:
            session.process(scan)
        assert isinstance(session.history[0], ScanSummary)
        report = replay_session(tmp_path / "ckpt")
        assert report.ok and len(report.scans) == 3 and not report.mismatched


# -- what a patient model holds, and for how long ---------------------------------


def worker_rss_mb(server) -> float:
    (handle,) = server.pool.workers
    for line in Path(f"/proc/{handle.process.pid}/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    raise AssertionError("no VmRSS line")


class TestPatientModelBytes:
    def test_eight_thousand_element_model_is_ten_megabytes(self):
        patient = make_neurosurgery_case(shape=(32, 32, 24), shift_mm=4.0, seed=5)
        pipeline = IntraoperativePipeline(PipelineConfig(mesh_cell_mm=8.0))
        preop = pipeline.prepare_preoperative(patient.preop_mri, patient.preop_labels)
        assert 8_000 <= preop.mesher.mesh.n_elements <= 9_000
        # DESIGN.md "What a patient model holds": 9.7 MB at 8,280 elements,
        # the surface's cached adjacency (0.1 MB) included.
        assert preop.surface._adjacency is not None
        assert preop.nbytes() == pytest.approx(9.7e6, rel=0.10)
        # Row blocks are views of K_ff; the walk charges the buffer once.
        context = preop.solve_context
        parts = sum(
            reachable_array_bytes(part)
            for part in (context.reduction, context.slots["matrix"])
        )
        assert reachable_array_bytes(context) < parts + reachable_array_bytes(
            context.assembly
        ) + reachable_array_bytes(
            {k: v for k, v in context.slots.items() if k != "matrix"}
        )

    def test_located_grid_is_counted_and_dropped_with_the_fem_state(self):
        patient = make_neurosurgery_case(shape=(32, 32, 24), shift_mm=4.0, seed=5)
        pipeline = IntraoperativePipeline(PipelineConfig(**FAST))
        preop = pipeline.prepare_preoperative(patient.preop_mri, patient.preop_labels)
        before = preop.nbytes()
        pipeline.process_scan(patient.intraop_mri, preop)
        located = preop.mesher.located_grid
        assert located is not None
        held = sum(part.nbytes for part in located[1:])
        assert 0 < held < 0.5e6
        grown = preop.nbytes() - before  # the grid entry; a solve leaves nothing
        assert grown == held
        preop.invalidate_solve_context()
        assert preop.mesher.located_grid is None
        assert preop.nbytes() <= before

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
    def test_worker_rss_stops_growing_past_the_bound(self, monkeypatch):
        bound = 3
        monkeypatch.setattr(pool_module, "PREOP_CACHE_MODELS", bound)  # forked in
        config = PipelineConfig(**{**FAST, "mesh_cell_mm": 8.0})
        scan = make_neurosurgery_case(shape=(32, 32, 24), shift_mm=4.0, seed=70)
        rss = {}
        server = SessionServer(n_workers=1)
        try:
            for n in range(1, 3 * bound + 1):
                patient = make_neurosurgery_case(
                    shape=(32, 32, 24), shift_mm=4.0, seed=70 + n
                )
                request = CaseRequest(
                    case_id=f"patient-{n}",
                    preop_mri=patient.preop_mri,
                    preop_labels=patient.preop_labels,
                    scans=[scan.intraop_mri],
                    config=config,
                )
                assert server.submit(request) is None
                result = server.run()[request.case_id]
                assert result.status == "completed" and not result.preop_cache_hit
                rss[n] = worker_rss_mb(server)
            (handle,) = server.pool.workers
            assert len(handle.cached_keys) == bound
            assert handle.cache.evictions == 2 * bound
            assert handle.cache.resident_bytes == pytest.approx(
                bound * 10.2e6, rel=0.15
            )
            metrics = server.metrics
            assert metrics.value("serving.preop_evictions") == 2 * bound
            assert metrics.value("serving.preop_resident[shard=0,worker=0]") == bound
            assert (
                metrics.value("serving.preop_resident_bytes")
                == handle.cache.resident_bytes
            )
            notes = [e for e in server.flight.entries() if e.kind == "preop.evict"]
            assert len(notes) == 2 * bound and notes[-1].attrs["resident"] == bound
        finally:
            server.shutdown()
        # Unbounded, a worker grows ~17 MB a patient: ~85 MB over these five.
        assert rss[3 * bound] - rss[bound + 1] < 40.0, rss


# -- the serving loop tells the truth ----------------------------------------------


class TestHealthBuildingBeforeWedged:
    def test_a_silent_building_worker_is_not_wedged(self, case):
        gateway = ShardGateway(n_shards=1, workers_per_shard=1, telemetry=False)
        try:
            pool = gateway.shards[0].pool
            (handle,) = pool.workers
            handle.busy = _StubRequest("first-case", "new-patient")
            # A stubbed heartbeat table: silent past the hang grace, inside
            # the build grace a cold model build is held to.
            pool.heartbeats[handle.worker_id] = time.monotonic() - 6.0
            gateway._building["first-case"] = True
            health = gateway.health()
            assert health["workers"] == {
                "idle": 0, "serving": 0, "building-preop": 1, "wedged": 0,
            }
            assert health["ready"] and health["reason"] == "ok"
            gateway._building["first-case"] = False
            health = gateway.health()
            assert health["workers"]["wedged"] == 1
            assert not health["ready"] and health["reason"] == "all workers wedged"
            # Silent past the build grace too, a building worker is wedged:
            # the classification the hang detector terminates on.
            gateway._building["first-case"] = True
            pool.heartbeats[handle.worker_id] = time.monotonic() - 1e6
            assert gateway.health()["workers"]["wedged"] == 1
            handle.busy = None
        finally:
            gateway.shutdown()


class _CountingResults(dict):
    """``gateway.results`` that counts how it is read."""

    reads = 0
    walks = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class TestFrontEndPublishesWhatTheLoopHandsBack:
    def test_per_pump_work_does_not_grow_with_cases_served(self):
        gateway = ShardGateway(n_shards=1, workers_per_shard=1, telemetry=False)
        try:
            gateway.results = _CountingResults()
            frontend = NetworkFrontEnd(gateway)
            # Results arrive the way a worker's do, on the pool's queue (a
            # thread queue here: what is put is there for the next poll).
            arrivals = gateway.shards[0].pool.result_queue = queue.Queue()
            published = []
            # A private loop: asyncio.run would unset the main thread's
            # default loop for every test after this one.
            loop = asyncio.new_event_loop()
            for n in range(200):
                case_id = f"stub-{n}"
                result = CaseResult(case_id=case_id, status="completed", worker=0)
                arrivals.put(("result", 0, result, PreopCacheReport()))
                before = (gateway.results.reads, gateway.results.walks)
                frontend._pump_sync([])
                handed_back = [result.case_id for result in frontend._resolved]
                assert handed_back == gateway.terminal_ids == [case_id]
                assert gateway.results.reads - before[0] == 1
                assert gateway.results.walks == before[1]
                published.extend(handed_back)
                loop.run_until_complete(frontend._publish())
            assert published == [f"stub-{n}" for n in range(200)]
            assert list(frontend._terminal) == published
            # Nothing left to hand back, nothing published twice.
            frontend._pump_sync([])
            assert frontend._resolved == [] and gateway.terminal_ids == []
            loop.close()
        finally:
            gateway.shutdown()

    def test_refusals_and_drain_terminations_are_handed_back_too(self, case):
        gateway = ShardGateway(
            n_shards=1, workers_per_shard=1, queue_capacity=1, telemetry=False
        )
        try:
            def request(case_id):
                return CaseRequest(
                    case_id=case_id,
                    preop_mri=case.preop_mri,
                    preop_labels=case.preop_labels,
                    scans=[case.intraop_mri],
                    config=PipelineConfig(**FAST),
                )

            assert gateway.submit(request("queued")) is None
            # A refusal is handed back by submit itself.
            assert gateway.submit(request("refused")).status == "rejected"
            assert gateway.terminal_ids == []
            gateway.drain(timeout=5.0)  # evicts "queued" before dispatch
            assert gateway.terminal_ids == ["queued"]
        finally:
            gateway.shutdown()


class TestFrontEndPreopStoreIsBounded:
    def test_evicted_upload_is_renegotiated_once(self, case, monkeypatch):
        monkeypatch.setattr(transport, "PREOP_STORE_PATIENTS", 1)
        other = make_neurosurgery_case(shape=SHAPE, shift_mm=4.0, seed=41)
        config = PipelineConfig(**FAST)

        def request(patient, case_id):
            return CaseRequest(
                case_id=case_id,
                preop_mri=patient.preop_mri,
                preop_labels=patient.preop_labels,
                scans=[case.intraop_mri],
                config=config,
            )

        gateway = ShardGateway(n_shards=1, workers_per_shard=1, queue_capacity=4)
        frontend = NetworkFrontEnd(gateway)
        frontend.start_in_thread()
        client = NetClient("127.0.0.1", frontend.port)
        try:
            client.submit(request(case, "a-0"))
            client.submit(request(other, "b-0"))  # pushes patient a's upload out
            first = client.wait(timeout=180.0)
            assert frontend._preops.keys() == [request(other, "x").preop_key()]
            uploads = int(client.metrics.value("net.client.preop_uploads"))
            assert uploads == 2
            ack = client.submit(request(case, "a-1"))  # need_preop -> re-upload
            assert ack["accepted"]
            again = client.wait(timeout=180.0)
            assert int(client.metrics.value("net.client.preop_uploads")) == uploads + 1
            assert int(client.metrics.value("net.client.results")) == 3
            assert again["a-1"].status == "completed"
            assert again["a-1"].scans[0].nodal_sha == first["a-0"].scans[0].nodal_sha
        finally:
            client.close()
            frontend.stop_from_thread()
            gateway.shutdown()
