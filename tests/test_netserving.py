"""Network serving tests: real sockets end to end, chaos, exactly-once.

Every test here drives the full wire path — a
:class:`repro.serving.transport.NetworkFrontEnd` bound to a loopback
listener in a background thread, fronting a real
:class:`repro.serving.ShardGateway` with worker processes, spoken to by
the retrying :class:`repro.serving.NetClient`. The cheap tests cover
health probes, content-addressed preop upload (once per patient),
duplicate-submit dedup and drain refusal; the ``faults``-marked drills
inject wire chaos (mid-frame reset, partition-then-heal) and demand the
client ride it out; the ``persistence``-marked test restarts the whole
server and proves a completed durable case is answered from its journal
without re-execution (exactly-once admission).
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest

from repro.core.config import PipelineConfig
from repro.imaging.phantom import make_neurosurgery_case
from repro.resilience import ServingFaultPlan
from repro.serving import (
    CaseRequest,
    NetClient,
    NetError,
    NetworkFrontEnd,
    ShardGateway,
    transport,
)

SHAPE = (16, 16, 12)
CELL_MM = 8.0


@pytest.fixture(scope="module")
def patient():
    return make_neurosurgery_case(shape=SHAPE, shift_mm=4.0, seed=11)


def make_request(patient, case_id, **kwargs):
    return CaseRequest(
        case_id=case_id,
        preop_mri=patient.preop_mri,
        preop_labels=patient.preop_labels,
        scans=kwargs.pop("scans", [patient.intraop_mri]),
        config=kwargs.pop("config", PipelineConfig(mesh_cell_mm=CELL_MM)),
        **kwargs,
    )


class _Server:
    """One started front-end + gateway, torn down in reverse order."""

    def __init__(self, wire_faults=None, **gateway_kwargs):
        gateway_kwargs.setdefault("n_shards", 1)
        gateway_kwargs.setdefault("workers_per_shard", 1)
        gateway_kwargs.setdefault("queue_capacity", 8)
        self.gateway = ShardGateway(**gateway_kwargs)
        self.frontend = NetworkFrontEnd(
            self.gateway,
            wire_faults=(
                ServingFaultPlan.parse(wire_faults)
                if isinstance(wire_faults, str)
                else wire_faults
            ),
        )

    def __enter__(self):
        self.frontend.start_in_thread()
        return self

    def __exit__(self, *exc):
        self.frontend.stop_from_thread()
        self.gateway.shutdown()

    @property
    def port(self):
        return self.frontend.port

    def counter(self, name: str) -> int:
        return int(self.gateway.metrics.value(name, 0.0))


class TestNetworkRoundTrip:
    def test_health_submit_result_and_preop_once(self, patient):
        with _Server() as server:
            client = NetClient("127.0.0.1", server.port)
            try:
                pong = client.ping(probe="ready")
                assert pong["live"] and pong["ready"]
                assert pong["reason"] == "ok"
                workers = pong["gateway"]["workers"]
                assert workers["idle"] >= 1 and workers["wedged"] == 0

                first = client.submit(make_request(patient, "case-0"))
                assert first["accepted"] and first["dedup"] == "none"
                second = client.submit(make_request(patient, "case-1"))
                assert second["accepted"]
                results = client.wait(timeout=180.0)
                assert sorted(results) == ["case-0", "case-1"]
                assert all(r.status == "completed" for r in results.values())
                # Content-addressed upload: one patient, one PREOP_PUT —
                # the second case referenced the stored model by key.
                assert server.counter("net.preop_uploads") == 1
                assert (
                    int(client.metrics.value("net.client.preop_uploads")) == 1
                )
                # Scans travelled as XOR deltas, preop travelled once:
                # upstream bytes stay well under two raw uploads.
                assert server.counter("net.bytes_in") > 0
                assert server.counter("net.bytes_out") > 0
            finally:
                client.close()

    def test_duplicate_submit_replays_terminal_result(self, patient):
        with _Server() as server:
            client = NetClient("127.0.0.1", server.port)
            try:
                client.submit(make_request(patient, "case-dup"))
                results = client.wait(timeout=180.0)
                original = results["case-dup"]

                ack = client.submit(make_request(patient, "case-dup"))
                assert ack["dedup"] == "terminal"
                replay = client.wait(timeout=30.0)["case-dup"]
                assert replay.status == original.status
                assert [s.nodal_sha for s in replay.scans] == [
                    s.nodal_sha for s in original.scans
                ]
                assert server.counter("net.duplicates") == 1
                # The gateway only ever saw one admission.
                assert server.counter("serving.admitted") == 1
            finally:
                client.close()

    def test_draining_refuses_new_cases(self, patient, monkeypatch):
        with _Server() as server:
            # Hold the first case at the gateway's door: while it is in
            # flight the drain waits, so the listener stays open.
            release = threading.Event()
            submit = server.gateway.submit

            def held_submit(request):
                release.wait(30.0)
                return submit(request)

            monkeypatch.setattr(server.gateway, "submit", held_submit)
            client = NetClient("127.0.0.1", server.port)
            try:
                assert client.submit(make_request(patient, "case-early"))["accepted"]
                server.frontend.request_drain()
                # The drain hops onto the loop: wait until it has landed.
                deadline = time.monotonic() + 10.0
                while not client.ping()["draining"]:
                    assert time.monotonic() < deadline, "the drain never reached the loop"
                    time.sleep(0.01)
                with pytest.raises(NetError, match="draining"):
                    client.submit(make_request(patient, "case-late"))
                pong = client.ping()
                assert pong["draining"] and not pong["ready"]
                assert pong["reason"] == "draining"
                # The refusal is counted: an SLO report sees the case
                # turned away during the drain.
                assert server.counter("serving.rejected") == 1
            finally:
                release.set()
                client.close()
            # The drain requested from this thread ran on the loop: the
            # server stops once the case in flight is done, well inside
            # the timeout (which raises if the thread outlives it).
            server.frontend.stop_from_thread(timeout=30.0)
            assert not server.frontend._thread.is_alive()
            assert server.counter("serving.admitted") == 1

    def test_unknown_preop_key_asks_for_upload(self, patient):
        with _Server() as server:
            client = NetClient("127.0.0.1", server.port)
            try:
                request = make_request(patient, "case-k")
                # Simulate a server that lost its preop cache: the client
                # believes the model is uploaded, the server disagrees.
                client._uploaded.add(request.preop_key())
                ack = client.submit(make_request(patient, "case-k"))
                # The client healed by re-negotiating the upload.
                assert ack["accepted"]
                assert client.wait(timeout=180.0)["case-k"].status == "completed"
                assert server.counter("net.preop_uploads") == 1
            finally:
                client.close()


class TestIdleWake:
    def test_submit_wakes_an_idle_pump(self, patient, monkeypatch):
        """An idle pump waits on the inbox, not on a timer: with a 5 s idle
        tick a case still turns round in the time its scan takes."""
        monkeypatch.setattr(transport, "PUMP_IDLE_S", 5.0)
        with _Server() as server:
            client = NetClient("127.0.0.1", server.port)
            try:
                # Pay the upload and the patient-model build first.
                client.submit(make_request(patient, "case-warm"))
                assert client.wait(timeout=180.0)["case-warm"].status == "completed"
                # Each submit lands at its own phase of the idle tick.
                for case_id in ("case-idle-0", "case-idle-1", "case-idle-2"):
                    started = time.monotonic()
                    client.submit(make_request(patient, case_id))
                    result = client.wait(timeout=30.0)[case_id]
                    assert result.status == "completed"
                    assert time.monotonic() - started < 2.0
            finally:
                client.close()


@pytest.mark.faults
class TestWireChaos:
    def test_reset_mid_frame_recovers_via_dedup(self, patient):
        # Ordinal 1 = the second SUBMIT arms a mid-result-frame reset.
        with _Server(wire_faults="1:reset-mid-frame") as server:
            client = NetClient("127.0.0.1", server.port)
            try:
                client.submit(make_request(patient, "case-r0"))
                client.submit(make_request(patient, "case-r1"))
                results = client.wait(timeout=180.0)
                assert sorted(results) == ["case-r0", "case-r1"]
                assert all(r.status == "completed" for r in results.values())
                assert server.counter("net.resets_injected") == 1
                # The client reconnected and the broken delivery was
                # answered from the terminal cache, not re-solved.
                assert (
                    int(client.metrics.value("net.client.reconnects")) >= 1
                )
                assert server.counter("net.duplicates") >= 1
                assert max(server.frontend.exec_counts.values()) == 1
            finally:
                client.close()

    def test_truncated_frame_rejected_then_recovered(self, patient):
        with _Server(wire_faults="1:truncate-frame") as server:
            client = NetClient("127.0.0.1", server.port)
            try:
                client.submit(make_request(patient, "case-t0"))
                client.submit(make_request(patient, "case-t1"))
                results = client.wait(timeout=180.0)
                assert all(r.status == "completed" for r in results.values())
                assert server.counter("net.truncates_injected") == 1
                assert int(client.metrics.value("net.client.frame_errors")) >= 1
                assert max(server.frontend.exec_counts.values()) == 1
            finally:
                client.close()

    def test_partition_heals_and_client_rides_it_out(self, patient):
        with _Server(wire_faults="0:partition@0.5") as server:
            client = NetClient("127.0.0.1", server.port)
            try:
                # The first submit trips the partition: the server drops
                # every connection for 0.5 s, then heals.
                client.submit(make_request(patient, "case-p0"))
                results = client.wait(timeout=180.0)
                assert results["case-p0"].status == "completed"
                assert server.counter("net.partitions") == 1
                assert server.counter("net.partition_drops") >= 1
                assert int(client.metrics.value("net.client.retries")) >= 1
                assert max(server.frontend.exec_counts.values()) == 1
            finally:
                client.close()

    def test_duplicate_delivery_collapses_onto_one_execution(self, patient):
        with _Server(wire_faults="0:dup-deliver") as server:
            client = NetClient("127.0.0.1", server.port)
            try:
                client.submit(make_request(patient, "case-d0"))
                results = client.wait(timeout=180.0)
                assert results["case-d0"].status == "completed"
                assert server.counter("net.dups_injected") == 1
                assert server.counter("net.duplicates") >= 1
                assert server.frontend.exec_counts == {"case-d0": 1}
                assert server.counter("serving.admitted") == 1
            finally:
                client.close()


@pytest.mark.persistence
class TestJournalGatedAdmission:
    def test_completed_durable_case_replays_across_restart(
        self, patient, tmp_path
    ):
        checkpoint = str(tmp_path / "case-j")
        request = make_request(patient, "case-j", checkpoint_dir=checkpoint)
        with _Server() as server:
            client = NetClient("127.0.0.1", server.port)
            try:
                client.submit(request)
                original = client.wait(timeout=180.0)["case-j"]
                assert original.status == "completed"
                assert Path(checkpoint).is_dir()
            finally:
                client.close()

        # A fresh server (empty terminal cache, empty preop store): the
        # duplicate delivery must be answered from the journal on disk,
        # never re-executed.
        with _Server() as server:
            client = NetClient("127.0.0.1", server.port)
            try:
                ack = client.submit(
                    make_request(patient, "case-j", checkpoint_dir=checkpoint)
                )
                assert ack["dedup"] == "journal"
                replay = client.wait(timeout=30.0)["case-j"]
                assert replay.status == "completed"
                assert all(s.restored for s in replay.scans)
                assert [s.nodal_sha for s in replay.scans] == [
                    s.nodal_sha for s in original.scans
                ]
                assert server.counter("net.journal_dedup") == 1
                assert server.counter("serving.admitted") == 0
                assert server.frontend.exec_counts == {}
            finally:
                client.close()


def _as_json(records) -> list[str]:
    """Records as their journal JSON (NaN-safe equality)."""
    return [json.dumps(r.as_dict(), sort_keys=True) for r in records]


class TestRepliesCarryOnlyRecords:
    def test_frame_stops_at_gateway_and_case_maps_drain(self, patient, tmp_path):
        checkpoint = str(tmp_path / "case-d")
        with _Server() as server:
            client = NetClient("127.0.0.1", server.port)
            try:
                client.submit(make_request(patient, "case-0"))
                client.submit(
                    make_request(patient, "case-d", checkpoint_dir=checkpoint)
                )
                results = client.wait(timeout=180.0)
                assert sorted(results) == ["case-0", "case-d"]
                # The worker's telemetry frame was grafted into the
                # gateway's trace and travelled no further.
                assert all(r.telemetry is None for r in results.values())
                grafted = [
                    s
                    for s in server.gateway.tracer.finished()
                    if s.name == "process_scan"
                ]
                assert len(grafted) == 2
                assert all(s.pid not in (0, os.getpid()) for s in grafted)
                assert server.counter("telemetry.frames") == 2
                # A duplicate delivery under a fresh key is answered from
                # the journal: the committed records themselves.
                ack = client.submit(
                    make_request(patient, "case-d2", checkpoint_dir=checkpoint)
                )
                assert ack["dedup"] == "journal"
                replay = client.wait(timeout=30.0)["case-d2"]
                assert all(r.restored for r in replay.scans)
                assert not any(r.restored for r in results["case-d"].scans)
                assert _as_json(replay.scans) == _as_json(results["case-d"].scans)
                # No per-case entry outlives its case.
                assert server.frontend._case_key == {}
                assert server.frontend._waiters == {}
            finally:
                client.close()
