"""The one serving control loop, checked on both of its configurations.

:class:`repro.serving.SessionServer` is :class:`repro.serving.ShardGateway`
with one shard and the single-host policy. These tests pin what that
merge fixed and what must not grow back: every loop method resolves to
one function, a duplicate of an in-flight case is refused, the two
behaviours on which the former copies had drifted agree, and every
admitted case ends exactly once with its bookkeeping cleared.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

import repro.serving
from repro.core.config import PipelineConfig
from repro.imaging.phantom import make_neurosurgery_case
from repro.obs import load_flight_dump
from repro.resilience import FaultPlan
from repro.serving import CaseRequest, SessionServer, ShardGateway
from repro.util import ValidationError

SHAPE = (24, 24, 16)
CELL_MM = 8.0

LOOP_METHODS = (
    "submit",
    "tick",
    "_dispatch_ready",
    "_dispatch",
    "_record",
    "_absorb_telemetry",
    "_evict_expired_queued",
    "_enforce_running_deadlines",
    "_handle_deaths",
    "drain",
    "summary_table",
)
#: ``def`` names that legitimately occur once more under
#: ``src/repro/serving/`` without being a loop method: the wire client's
#: ``NetClient.submit`` and the pool's own ``SessionWorkerPool.drain``.
HOMONYMS = {"submit": 1, "drain": 1}

#: One worker behind each configuration of the loop.
LOOPS = {
    "server": lambda **kw: SessionServer(n_workers=1, **kw),
    "gateway": lambda **kw: ShardGateway(n_shards=1, workers_per_shard=1, **kw),
}
PER_CASE_MAPS = (
    "_attempts",
    "_admitted_at",
    "_not_before",
    "_building",
    "_inflight",
    "_case_spans",
)
TERMINAL = ("completed", "degraded", "failed", "evicted", "drained")


@pytest.fixture(scope="module")
def patient():
    return make_neurosurgery_case(shape=SHAPE, shift_mm=5.0, seed=11)


@pytest.fixture(scope="module")
def scans(patient):
    second = make_neurosurgery_case(shape=SHAPE, shift_mm=4.0, seed=12)
    return [patient.intraop_mri, second.intraop_mri]


@pytest.fixture(params=sorted(LOOPS))
def make_loop(request):
    return LOOPS[request.param]


def make_request(patient, scans, case_id, crash=None, **kwargs):
    config = PipelineConfig(mesh_cell_mm=CELL_MM)
    if crash is not None:
        config.fault_plan = FaultPlan.parse(crash, seed=0)
    return CaseRequest(
        case_id=case_id,
        preop_mri=patient.preop_mri,
        preop_labels=patient.preop_labels,
        scans=list(scans),
        config=config,
        **kwargs,
    )


def assert_every_case_ended_once(loop, admitted):
    assert set(loop.results) == set(admitted)
    assert all(r.status in TERMINAL for r in loop.results.values())
    ended = sum(loop.metrics.value(f"serving.{s}", 0.0) for s in TERMINAL)
    assert ended == len(admitted)
    leftovers = {name: dict(getattr(loop, name)) for name in PER_CASE_MAPS}
    assert not any(leftovers.values()), leftovers


class TestOneLoop:
    def test_loop_methods_resolve_to_one_function(self):
        for name in LOOP_METHODS:
            assert getattr(SessionServer, name) is getattr(ShardGateway, name), name

    def test_loop_methods_are_defined_once(self):
        # The same count .github/workflows/ci.yml makes with grep.
        source = "\n".join(
            path.read_text()
            for path in Path(repro.serving.__file__).parent.glob("*.py")
        )
        for name in LOOP_METHODS:
            found = len(re.findall(rf"^ *def {name}\(", source, flags=re.M))
            assert found == 1 + HOMONYMS.get(name, 0), name

    def test_server_is_a_configuration_not_a_mode(self):
        server = inspect.signature(SessionServer.__init__).parameters
        gateway = inspect.signature(ShardGateway.__init__).parameters
        assert len(server) - 1 == 9 and len(gateway) - 1 == 14
        # Nothing but the constructor, the pool accessor and five label
        # strings is the server's own.
        own = {k for k in vars(SessionServer) if not k.startswith("__")}
        assert own == {
            "label",
            "lane",
            "worker_desc",
            "summary_title",
            "summary_footer",
            "pool",
        }


class TestDuplicateInFlight:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: SessionServer(n_workers=1),
            lambda: ShardGateway(n_shards=2, workers_per_shard=1),
        ],
        ids=["server", "gateway-2-shards"],
    )
    def test_duplicate_of_inflight_case_is_refused(self, make, patient, scans):
        loop = make()
        try:
            assert loop.submit(make_request(patient, scans[:1], "twin")) is None
            loop._dispatch_ready()
            # In flight: neither queued nor in results any more.
            assert len(loop.queue) == 0 and "twin" not in loop.results
            with pytest.raises(ValidationError, match="duplicate case_id"):
                loop.submit(make_request(patient, scans[:1], "twin"))
            assert loop.metrics.value("serving.admitted") == 1
            assert len(loop._case_spans) == 1
        finally:
            loop.shutdown()


class TestDriftFixedByTheMerge:
    @pytest.mark.faults
    @pytest.mark.persistence
    def test_attempts_exhausted_carries_worker_and_flight_dump(
        self, make_loop, patient, scans, tmp_path
    ):
        loop = make_loop(max_attempts=1)
        try:
            request = make_request(
                patient,
                scans,
                "doomed",
                crash="1:crash-after=solve",
                checkpoint_dir=str(tmp_path / "ckpt"),
            )
            assert loop.submit(request) is None
            result = loop.run()["doomed"]
        finally:
            loop.shutdown()
        assert result.status == "failed"
        who = "worker 0" if isinstance(loop, SessionServer) else "worker 0 (shard 0)"
        assert result.detail == (
            f"{who} died; re-admission budget exhausted (1 attempts)"
        )
        assert result.attempts == 1
        assert result.worker == 0
        # Scan 0 completed and spooled the worker's ring before the kill.
        assert result.flight_dump == "worker-0.json"
        dump = load_flight_dump(Path(loop.flight_dir) / result.flight_dump)
        kinds = [e["kind"] for e in dump["entries"]]
        assert "scan.complete" in kinds

    @pytest.mark.faults
    def test_drain_timeout_dumps_the_control_plane_ring(
        self, make_loop, patient, scans
    ):
        loop = make_loop()
        try:
            loop.shards[0].pool.inject_hang()  # wedge the only worker
            assert loop.submit(make_request(patient, scans[:1], "stuck")) is None
            loop._dispatch_ready()  # the case lands behind the wedge
            results = loop.drain(timeout=1.0)
        finally:
            loop.shutdown()
        assert results["stuck"].status == "evicted"
        assert "missed drain timeout" in results["stuck"].detail
        name = "server.json" if isinstance(loop, SessionServer) else "gateway.json"
        dump = load_flight_dump(Path(loop.flight_dir) / name)
        assert dump["reason"] == "drain timeout"
        assert dump["context"]["case"] == "stuck"
        assert dump["context"]["worker"] == 0


class TestSingleTerminalPoint:
    @pytest.mark.faults
    @pytest.mark.persistence
    def test_every_admission_ends_once_and_leaves_nothing_behind(
        self, make_loop, patient, scans, tmp_path
    ):
        loop = make_loop(max_attempts=2)
        try:
            # One worker, four cases: "crash" (its own patient model)
            # kills its worker once and is re-admitted; "b0" and "b1"
            # share a patient and are served one after the other; "late"
            # queues behind them and expires there.
            first = [
                make_request(
                    make_neurosurgery_case(shape=SHAPE, shift_mm=5.0, seed=21),
                    scans[:1],
                    "crash",
                    crash="0:crash-after=begin",
                    checkpoint_dir=str(tmp_path / "crash"),
                ),
                make_request(patient, scans[:1], "b0"),
                make_request(patient, scans[:1], "b1"),
                make_request(patient, scans[:1], "late", deadline_s=0.05),
            ]
            for request in first:
                assert loop.submit(request) is None
            results = loop.run()
            assert results["crash"].status == "completed", results["crash"].detail
            assert results["crash"].attempts == 2
            assert results["b0"].ok and results["b1"].ok
            assert results["late"].status == "evicted"
            assert loop.metrics.value("serving.worker_deaths") == 1
            assert_every_case_ended_once(loop, [r.case_id for r in first])

            # Then a drain with a case in flight and a case still queued.
            second = [make_request(patient, scans, f"d{i}") for i in range(2)]
            for request in second:
                assert loop.submit(request) is None
            loop._dispatch_ready()
            assert len(loop._inflight) == 1 and len(loop.queue) == 1
            results = loop.drain(timeout=120.0)
            assert results["d1"].detail == "drained before dispatch"
            assert_every_case_ended_once(
                loop, [r.case_id for r in first + second]
            )
        finally:
            loop.shutdown()
