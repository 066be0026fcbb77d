"""Sharded-serving tests: ring, shedding, faults, gateway drills.

The cheap half exercises the sharding control plane in-process: the
consistent-hash ring's determinism and minimal-disruption property, the
load-shedding ladder, serving-fault-plan parsing,
the forced-degradation floor, and the pool's respawn backoff. The
expensive half runs real worker processes on tiny phantom grids: ring
affinity through the gateway, kill-shard failover with bit-identical
journal replay, attempt exhaustion terminating (never hanging), dropped
results re-admitting, overload shedding into degraded service, wedged
workers caught by heartbeat, and drain-timeout stragglers surfacing as
terminal evictions.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import PipelineConfig
from repro.imaging.phantom import make_neurosurgery_case
from repro.resilience import (
    DegradationLevel,
    ResiliencePolicy,
    ServingFaultPlan,
    ServingFaultSpec,
)
from repro.serving import (
    CaseRequest,
    ConsistentHashRing,
    SessionServer,
    SessionWorkerPool,
    ShardGateway,
    SheddingLadder,
)
from repro.serving.soak import run_serial
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


def make_request(patient, scans, case_id="case-a", **kwargs):
    return CaseRequest(
        case_id=case_id,
        preop_mri=patient.preop_mri,
        preop_labels=patient.preop_labels,
        scans=list(scans),
        config=kwargs.pop("config", PipelineConfig(mesh_cell_mm=CELL_MM)),
        **kwargs,
    )


# -- consistent-hash ring ----------------------------------------------------


class TestConsistentHashRing:
    KEYS = [f"patient-{i:03d}" for i in range(200)]

    def test_routes_every_key_and_spreads_load(self):
        ring = ConsistentHashRing([0, 1, 2])
        table = ring.table(self.KEYS)
        assert set(table) == set(self.KEYS)
        per_shard = {s: sum(1 for v in table.values() if v == s) for s in (0, 1, 2)}
        # Virtual nodes keep the split rough but never degenerate.
        assert all(count > 0 for count in per_shard.values()), per_shard

    def test_remove_remaps_only_the_dead_shards_keys(self):
        ring = ConsistentHashRing([0, 1, 2])
        before = ring.table(self.KEYS)
        ring.remove(1)
        after = ring.table(self.KEYS)
        for key in self.KEYS:
            if before[key] != 1:
                # Minimal disruption: survivors keep every key they had.
                assert after[key] == before[key], key
            else:
                assert after[key] in (0, 2), key
        assert 1 not in ring
        assert ring.shards == [0, 2]

    def test_add_is_incremental(self):
        grown = ConsistentHashRing([0, 1])
        grown.add(2)
        fresh = ConsistentHashRing([0, 1, 2])
        assert grown.table(self.KEYS) == fresh.table(self.KEYS)

    def test_membership_validation(self):
        ring = ConsistentHashRing([0])
        with pytest.raises(ValidationError, match="already"):
            ring.add(0)
        with pytest.raises(ValidationError, match="not on the ring"):
            ring.remove(7)
        ring.remove(0)
        with pytest.raises(ValidationError, match="no shards"):
            ring.route("anything")
        with pytest.raises(ValidationError, match="replicas"):
            ConsistentHashRing(replicas=0)

    def test_cross_process_determinism(self):
        """The ring must route identically in a fresh interpreter.

        BLAKE2b positions are process-stable; builtin ``hash`` would be
        salted per process and silently break replay tooling — so the
        routing table is compared against a subprocess with a different
        hash seed.
        """
        keys = self.KEYS[:48]
        local = ConsistentHashRing([0, 1, 2]).table(keys)
        code = (
            "import json\n"
            "from repro.serving import ConsistentHashRing\n"
            f"keys = [f'patient-{{i:03d}}' for i in range({len(keys)})]\n"
            "print(json.dumps(ConsistentHashRing([0, 1, 2]).table(keys)))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert {k: int(v) for k, v in json.loads(out.stdout).items()} == local


# -- shedding ladder ---------------------------------------------------------


class TestSheddingLadder:
    def test_thresholds_must_escalate(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            SheddingLadder(coarse_at=0.8, previous_at=0.7)
        with pytest.raises(ValidationError, match="horizon_s"):
            SheddingLadder(horizon_s=0.0)

    def test_decide_walks_the_rungs(self):
        ladder = SheddingLadder(
            coarse_at=0.5, previous_at=0.7, rigid_at=0.9, reject_at=1.1
        )
        assert ladder.decide(0.2).level is None
        assert ladder.decide(0.55).level == DegradationLevel.COARSE_FEM
        assert ladder.decide(0.75).level == DegradationLevel.PREVIOUS_FIELD
        assert ladder.decide(1.0).level == DegradationLevel.RIGID_ONLY
        assert not ladder.decide(1.0).reject
        rejected = ladder.decide(1.2)
        assert rejected.reject and rejected.label == "reject"

    def test_pressure_is_the_max_of_both_signals(self):
        ladder = SheddingLadder(horizon_s=10.0)
        assert ladder.pressure(0.3, backlog_seconds=0.0, n_workers=2) == 0.3
        # 18 s of backlog over 2 workers x 10 s horizon = 0.9.
        assert ladder.pressure(0.3, backlog_seconds=18.0, n_workers=2) == pytest.approx(
            0.9
        )


# -- serving fault plan ------------------------------------------------------


class TestServingFaultPlan:
    def test_parse_forms(self):
        plan = ServingFaultPlan.parse(
            "2:kill-shard=1; 0:slow-shard=0@0.25, 3:hang-worker"
        )
        assert len(plan) == 3
        kill = plan.specs[0]
        assert (kill.at, kill.kind, kill.shard) == (2, "kill-shard", 1)
        slow = plan.specs[1]
        assert slow.param == 0.25 and slow.delay_s == 0.25
        assert plan.specs[2].shard == 0
        assert "kill-shard=shard1" in plan.describe()

    def test_due_fires_each_spec_once(self):
        plan = ServingFaultPlan.parse("1:kill-shard=0;2:drop-result=1")
        assert plan.due(0) == []
        first = plan.due(1)
        assert [s.kind for s in first] == ["kill-shard"]
        assert plan.due(1) == []  # one-shot
        assert [s.kind for s in plan.due(5)] == ["drop-result"]
        assert len(plan.triggered) == 2
        assert len(plan.log) == 2

    def test_validation(self):
        with pytest.raises(ValidationError, match="unknown serving fault"):
            ServingFaultSpec(at=0, kind="explode")
        with pytest.raises(ValidationError, match="cannot parse"):
            ServingFaultPlan.parse("kill-shard")
        with pytest.raises(ValidationError, match="ordinal"):
            ServingFaultSpec(at=-1, kind="kill-shard")


# -- forced degradation floor ------------------------------------------------


class TestDegradationFloor:
    def test_floor_validated_against_ceiling(self):
        policy = ResiliencePolicy(min_degradation="previous-field")
        assert policy.min_degradation == DegradationLevel.PREVIOUS_FIELD
        with pytest.raises(ValidationError, match="min_degradation"):
            ResiliencePolicy(
                max_degradation="coarse-fem", min_degradation="rigid-only"
            )

    def test_manifest_roundtrip(self):
        """Every policy field survives the checkpoint manifest, so a
        replay runs under the policy that recorded the session."""
        from repro.persist.checkpoint import config_from_manifest, config_to_manifest

        non_default = {
            "enabled": False,
            "max_degradation": DegradationLevel.PREVIOUS_FIELD,
            "min_degradation": DegradationLevel.COARSE_FEM,
        }
        names = [f.name for f in dataclasses.fields(ResiliencePolicy)]
        unlisted = [name for name in names if name not in non_default]
        assert not unlisted, f"policy fields with no round-trip case: {unlisted}"
        config = PipelineConfig(mesh_cell_mm=CELL_MM)
        for name, value in non_default.items():
            assert getattr(config.resilience, name) != value
            setattr(config.resilience, name, value)
        restored = config_from_manifest(config_to_manifest(config))
        for name in names:
            assert getattr(restored.resilience, name) == getattr(config.resilience, name), name

    def test_forced_floor_skips_work_and_records_cause(self, patient, intraop_scans):
        from repro.core.pipeline import IntraoperativePipeline
        from repro.core.session import SurgicalSession

        config = PipelineConfig(mesh_cell_mm=CELL_MM)
        config.resilience.min_degradation = DegradationLevel.PREVIOUS_FIELD
        session = SurgicalSession.begin(
            IntraoperativePipeline(config=config),
            patient.preop_mri,
            patient.preop_labels,
        )
        # Scan 0 has no previous field: the floor falls through to
        # rigid-only. Scan 1 serves the previous rung as stamped.
        first = session.process(intraop_scans[0])
        assert first.degradation.level == DegradationLevel.RIGID_ONLY
        assert "load shed" in first.degradation.cause
        second = session.process(intraop_scans[1])
        assert second.degradation.level == DegradationLevel.PREVIOUS_FIELD
        assert any("image stages skipped" in n for n in second.degradation.notes)


# -- pool robustness ---------------------------------------------------------


class TestPoolRobustness:
    @pytest.mark.faults
    def test_respawn_backoff_on_crash_loop(self):
        pool = SessionWorkerPool(1, respawn_base_s=0.2, respawn_cap_s=1.0)
        try:
            # First crash: immediate respawn (fast isolated recovery).
            pool.workers[0].process.kill()
            pool.workers[0].process.join()
            assert [w for w, _ in pool.reap()] == [0]
            assert pool.n_workers == 1 and pool.respawns == 1
            # Second crash of the same slot: deferred with backoff.
            pool.workers[0].process.kill()
            pool.workers[0].process.join()
            pool.reap()
            assert pool.n_workers == 0
            assert pool.pending_respawns() == 1
            deadline = time.monotonic() + 5.0
            respawned: list[int] = []
            while not respawned and time.monotonic() < deadline:
                respawned = pool.maintain()
                time.sleep(0.02)
            assert respawned == [0]
            assert pool.n_workers == 1 and pool.respawns == 2
            # The schedule is capped and deterministic.
            assert pool._backoff_delay(0, 50) <= pool.respawn_cap_s * (
                1.0 + pool.RESPAWN_JITTER
            )
            assert pool._backoff_delay(0, 3) == pool._backoff_delay(0, 3)
        finally:
            pool.shutdown()

    @pytest.mark.faults
    def test_wedged_worker_detected_by_heartbeat(self, patient, intraop_scans):
        pool = SessionWorkerPool(1, heartbeat_s=0.1)
        try:
            assert pool.inject_hang() == 0
            time.sleep(0.5)  # the worker reads the wedge and goes silent
            request = make_request(patient, intraop_scans[:1], case_id="wedged")
            pool.dispatch(pool.workers[0], request)
            assert pool.stale_workers(30.0) == []  # dispatch stamped the beat
            deadline = time.monotonic() + 10.0
            while not pool.stale_workers(0.3) and time.monotonic() < deadline:
                pool.poll_results(timeout=0.05)
            stale = pool.stale_workers(0.3)
            assert [w.worker_id for w in stale] == [0]
            back = pool.terminate_worker(0)
            assert back is not None and back.case_id == "wedged"
            assert pool.n_workers == 1 and pool.workers[0].alive
        finally:
            pool.shutdown()


# -- the gateway -------------------------------------------------------------


class TestShardGateway:
    def test_serves_with_ring_affinity(self, patient, intraop_scans):
        other = make_neurosurgery_case(shape=SHAPE, shift_mm=5.0, seed=21)
        gateway = ShardGateway(n_shards=2, workers_per_shard=1)
        try:
            for i, person in enumerate((patient, other)):
                for j in range(2):
                    request = CaseRequest(
                        case_id=f"p{i}c{j}",
                        preop_mri=person.preop_mri,
                        preop_labels=person.preop_labels,
                        scans=[intraop_scans[0]],
                        config=PipelineConfig(mesh_cell_mm=CELL_MM),
                    )
                    assert gateway.submit(request) is None
            results = gateway.run()
        finally:
            gateway.shutdown()
        assert all(r.ok for r in results.values()), {
            k: (v.status, v.detail) for k, v in results.items()
        }
        # Ring affinity: each patient's follow-up case lands on the shard
        # that already built that patient's model, so it hits the cache.
        assert results["p0c1"].preop_cache_hit
        assert results["p1c1"].preop_cache_hit

    @pytest.mark.faults
    @pytest.mark.persistence
    def test_kill_shard_mid_case_replays_bit_identical(
        self, patient, intraop_scans, tmp_path
    ):
        _, serial = run_serial([make_request(patient, intraop_scans, case_id="drill")])
        gateway = ShardGateway(n_shards=2, workers_per_shard=1, max_attempts=3)
        journal = tmp_path / "ckpt" / "journal.jsonl"

        def committed() -> int:
            if not journal.is_file():
                return 0
            return sum(
                1
                for line in journal.read_text().splitlines()
                if line.strip() and json.loads(line).get("type") == "commit"
            )

        try:
            request = make_request(
                patient,
                intraop_scans,
                case_id="drill",
                checkpoint_dir=str(tmp_path / "ckpt"),
            )
            target = gateway.ring.route(request.preop_key())
            assert gateway.submit(request) is None
            gateway._dispatch_ready()
            deadline = time.monotonic() + 120.0
            while committed() < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert committed() >= 1, "scan 0 never committed to the journal"
            gateway.kill_shard(target)
            results = gateway.run()
        finally:
            gateway.shutdown()
        result = results["drill"]
        assert result.status == "completed", result.detail
        assert result.attempts == 2
        # Scan 0 replays from the journal on the surviving shard —
        # restored, not recomputed — and the full field sequence matches
        # an uninterrupted serial session bit-exactly.
        assert result.scans[0].restored
        assert [s.nodal_sha for s in result.scans] == serial["drill"]
        assert target not in gateway.ring
        assert gateway.metrics.value("serving.shard_deaths") == 1
        assert gateway.metrics.value("serving.failover") == 1

    @pytest.mark.faults
    def test_attempt_exhaustion_terminates_failed(self, patient, intraop_scans):
        # Every result the case ever produces is dropped: the first drop
        # re-admits (attempt 2), the second exhausts the budget. A
        # crash-after fault cannot drive this — replay marks journaled
        # faults as fired so the retry completes, which is the point of
        # the journal — so the chaos lives at the serving layer instead.
        request = make_request(patient, intraop_scans[:1], case_id="doomed")
        target = ConsistentHashRing([0, 1]).route(request.preop_key())
        gateway = ShardGateway(
            n_shards=2,
            workers_per_shard=1,
            max_attempts=2,
            retry_base_s=0.05,
            serving_faults=ServingFaultPlan.parse(
                f"0:drop-result={target};1:drop-result={target}"
            ),
        )
        try:
            assert gateway.submit(request) is None
            results = gateway.run()  # must return, never hang
        finally:
            gateway.shutdown()
        result = results["doomed"]
        assert result.status == "failed"
        assert result.attempts == 2
        assert "budget exhausted" in result.detail
        assert gateway.metrics.value("serving.dropped_results") == 2

    @pytest.mark.faults
    def test_dropped_result_readmits_and_serves(self, patient, intraop_scans):
        request = make_request(patient, intraop_scans[:1], case_id="lost-reply")
        target = ConsistentHashRing([0, 1]).route(request.preop_key())
        gateway = ShardGateway(
            n_shards=2,
            workers_per_shard=1,
            max_attempts=3,
            retry_base_s=0.05,
            serving_faults=ServingFaultPlan.parse(f"0:drop-result={target}"),
        )
        try:
            assert gateway.submit(request) is None
            results = gateway.run()
        finally:
            gateway.shutdown()
        result = results["lost-reply"]
        assert result.status == "completed", result.detail
        assert result.attempts == 2
        assert gateway.metrics.value("serving.dropped_results") == 1
        assert gateway.metrics.value("serving.readmitted") == 1

    def test_overload_sheds_into_degraded_service(self, patient, intraop_scans):
        gateway = ShardGateway(n_shards=1, workers_per_shard=1, queue_capacity=4)
        try:
            rejected = []
            for i in range(5):
                request = make_request(
                    patient, intraop_scans[:1], case_id=f"burst-{i}"
                )
                outcome = gateway.submit(request)
                if outcome is not None:
                    rejected.append(outcome)
            results = gateway.run()
        finally:
            gateway.shutdown()
        # The 4th submission saw 3/4 fill (>= previous_at): stamped with a
        # shed floor and served degraded; the 5th hit hard backpressure.
        assert gateway.metrics.value("serving.shed") >= 1
        degraded = [r for r in results.values() if r.status == "degraded"]
        assert degraded, {k: v.status for k, v in results.items()}
        assert any("previous-field" in r.detail or "rigid-only" in r.detail
                   for r in degraded)
        assert len(rejected) == 1 and "queue full" in rejected[0].detail
        served = [r for r in results.values() if r.ok]
        assert len(served) == 4  # shed cases served, only the 5th refused

    @pytest.mark.faults
    def test_total_fleet_loss_fails_queued_without_hanging(
        self, patient, intraop_scans
    ):
        gateway = ShardGateway(
            n_shards=1,
            workers_per_shard=1,
            max_attempts=3,
            serving_faults=ServingFaultPlan.parse("1:kill-shard=0"),
        )
        try:
            assert gateway.submit(
                make_request(patient, intraop_scans[:1], case_id="inflight")
            ) is None
            assert gateway.submit(
                make_request(patient, intraop_scans[:1], case_id="queued")
            ) is None
            results = gateway.run()  # must return, never hang
        finally:
            gateway.shutdown()
        assert set(results) == {"inflight", "queued"}
        for result in results.values():
            assert result.status == "failed"
            assert "no live shards" in result.detail
        assert gateway.live_shards() == []

    def test_duplicate_and_closed_validation(self, patient, intraop_scans):
        gateway = ShardGateway(n_shards=1, workers_per_shard=1)
        try:
            request = make_request(patient, intraop_scans[:1], case_id="dup")
            assert gateway.submit(request) is None
            with pytest.raises(ValidationError, match="duplicate"):
                gateway.submit(make_request(patient, intraop_scans[:1], case_id="dup"))
            gateway.run()
        finally:
            gateway.shutdown()
        with pytest.raises(ValidationError, match="shut down"):
            gateway.submit(make_request(patient, intraop_scans[:1], case_id="late"))


# -- drain-timeout stragglers ------------------------------------------------


class TestDrainTimeout:
    @pytest.mark.faults
    def test_server_drain_surfaces_straggler_as_terminal_eviction(
        self, patient, intraop_scans
    ):
        server = SessionServer(n_workers=1, max_attempts=2)
        try:
            server.pool.inject_hang()  # wedge the only worker
            time.sleep(0.3)
            assert server.submit(
                make_request(patient, intraop_scans[:1], case_id="stuck")
            ) is None
            server._dispatch_ready()  # the case lands behind the wedge
            results = server.drain(timeout=1.0)
        finally:
            server.shutdown()
        result = results["stuck"]
        assert result.status == "evicted"
        assert "missed drain timeout" in result.detail
        assert result.attempts == 1
        assert server.metrics.value("serving.evicted") == 1
        # Every admitted case has exactly one terminal status — nothing
        # is silently dropped by a drain.
        assert set(results) == {"stuck"}

    @pytest.mark.faults
    def test_gateway_drain_surfaces_straggler_as_terminal_eviction(
        self, patient, intraop_scans
    ):
        gateway = ShardGateway(n_shards=1, workers_per_shard=1, max_attempts=2)
        try:
            gateway.shards[0].pool.inject_hang()
            time.sleep(0.3)
            assert gateway.submit(
                make_request(patient, intraop_scans[:1], case_id="stuck")
            ) is None
            gateway._dispatch_ready()
            results = gateway.drain(timeout=1.0)
        finally:
            gateway.shutdown()
        result = results["stuck"]
        assert result.status == "evicted"
        assert "missed drain timeout" in result.detail
