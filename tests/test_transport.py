"""Wire-protocol tests: frames, codecs, retry client, fault grammar.

Property-style coverage of the network layer's pure parts — the
length-prefixed BLAKE2b-checksummed frame format (round-trip for
``CaseRequest`` / ``CaseResult`` / ``TelemetryFrame`` payloads,
rejection of truncated tails and of any single flipped bit), the
raw/zlib volume codec, the circuit breaker's state machine and the
deterministic retry jitter — plus the satellite contracts: the
admission queue charging client-stamped network wait against the
deadline, ``ServingFaultPlan.parse`` naming every valid fault kind
when it rejects, and a journal replay reporting its live case's status.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.imaging.phantom import make_neurosurgery_case
from repro.imaging.volume import ImageVolume
from repro.obs.telemetry import TelemetryFrame
from repro.persist import ScanRecord, completed_records
from repro.resilience import FaultPlan
from repro.resilience.faults import (
    SERVING_FAULTS,
    WIRE_FAULTS,
    ServingFaultPlan,
    ServingFaultSpec,
)
from repro.serving import (
    AdmissionQueue,
    CaseRequest,
    CaseResult,
    CircuitBreaker,
    FrameError,
    ServiceEstimator,
    decode_frame,
    decode_volume,
    encode_frame,
    encode_volume,
)
from repro.serving.pool import _serve_case
from repro.serving.protocol import STATUS_COMPLETED, STATUS_DEGRADED, retry_backoff
from repro.serving.transport import (
    DIGEST_SIZE,
    HEADER,
    MAGIC,
    T_RESULT,
    T_SUBMIT,
    decode_submit,
    encode_submit,
    result_from_journal,
)
from repro.util import ValidationError
from repro.util.memory import LRUStore

SHAPE = (16, 16, 12)


@pytest.fixture(scope="module")
def patient():
    return make_neurosurgery_case(shape=SHAPE, shift_mm=4.0, seed=3)


@pytest.fixture(scope="module")
def request_obj(patient):
    return CaseRequest(
        case_id="case-w",
        preop_mri=patient.preop_mri,
        preop_labels=patient.preop_labels,
        scans=[patient.intraop_mri],
        config=PipelineConfig(mesh_cell_mm=8.0),
        deadline_s=120.0,
    )


# -- frame format -------------------------------------------------------------


class TestFrames:
    def test_submit_payload_roundtrip(self, request_obj):
        frame = encode_frame(T_SUBMIT, encode_submit(request_obj, tag=9))
        ftype, flags, payload, end = decode_frame(frame)
        assert (ftype, flags, end) == (T_SUBMIT, 0, len(frame))
        preop = (request_obj.preop_mri, request_obj.preop_labels)
        rebuilt = decode_submit(payload, preop)
        assert rebuilt.case_id == request_obj.case_id
        assert rebuilt.preop_key() == request_obj.preop_key()
        assert rebuilt.deadline_s == request_obj.deadline_s
        np.testing.assert_array_equal(
            rebuilt.scans[0].data, request_obj.scans[0].data
        )

    def test_result_payload_roundtrip(self):
        result = CaseResult(
            case_id="case-r",
            status="degraded",
            detail="rigid-only fallback",
            worker=3,
            scans=[
                ScanRecord(
                    scan=0,
                    result_file="",
                    nodal_sha="aa",
                    grid_sha="bb",
                    match_rigid_rms=0.5,
                    match_simulated_rms=0.25,
                    match_rigid_mi=1.0,
                    match_simulated_mi=1.5,
                    solver_iterations=17,
                    timeline=[("rigid registration", 1.25, "intraoperative")],
                    degradation="rigid-only",
                )
            ],
            attempts=2,
        )
        ftype, _, payload, _ = decode_frame(
            encode_frame(T_RESULT, {"tag": 4, "result": result})
        )
        assert ftype == T_RESULT
        assert payload["result"] == result

    def test_telemetry_frame_roundtrip(self):
        frame = TelemetryFrame(
            trace_id="t-1",
            worker=2,
            pid=123,
            clock_base=10.5,
            spans=[{"name": "serve.case", "t0": 0.0, "t1": 1.0}],
            metrics={"counters": {"serving.scans": 3.0}},
        )
        _, _, payload, _ = decode_frame(encode_frame(T_RESULT, {"frame": frame}))
        assert payload["frame"] == frame

    def test_trailing_bytes_ignored_via_offset(self):
        one = encode_frame(T_RESULT, {"n": 1})
        two = encode_frame(T_RESULT, {"n": 2})
        buffer = one + two
        _, _, first, end = decode_frame(buffer)
        _, _, second, end2 = decode_frame(buffer, offset=end)
        assert (first["n"], second["n"]) == (1, 2)
        assert end2 == len(buffer)

    @settings(max_examples=60, deadline=None)
    @given(
        payload=st.dictionaries(
            st.text(max_size=8),
            st.one_of(
                st.integers(min_value=-(2**31), max_value=2**31),
                st.binary(max_size=64),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=32),
            ),
            max_size=6,
        ),
        data=st.data(),
    )
    def test_truncated_tail_rejected(self, payload, data):
        frame = encode_frame(T_SUBMIT, payload)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(FrameError, match="truncated|short"):
            decode_frame(frame[:cut])
        # The intact frame still parses (the cut, not the payload, broke it).
        assert decode_frame(frame)[2] == payload

    @settings(max_examples=60, deadline=None)
    @given(
        payload=st.dictionaries(
            st.text(max_size=8), st.binary(max_size=64), max_size=4
        ),
        data=st.data(),
    )
    def test_any_flipped_bit_rejected(self, payload, data):
        frame = bytearray(encode_frame(T_SUBMIT, payload))
        position = data.draw(
            st.integers(min_value=0, max_value=len(frame) * 8 - 1)
        )
        frame[position // 8] ^= 1 << (position % 8)
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_checksum_mismatch_names_the_failure(self):
        frame = bytearray(encode_frame(T_SUBMIT, {"k": b"v"}))
        frame[-1] ^= 0xFF  # corrupt the digest itself
        with pytest.raises(FrameError, match="checksum"):
            decode_frame(bytes(frame))

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(T_SUBMIT, {}))
        frame[0] ^= 0xFF
        with pytest.raises(FrameError, match="magic"):
            decode_frame(bytes(frame))

    def test_oversize_length_rejected(self):
        header = HEADER.pack(MAGIC, T_SUBMIT, 0, 2**31)
        with pytest.raises(FrameError, match="exceeds"):
            decode_frame(header + b"\x00" * 64)

    def test_unknown_frame_type_rejected(self):
        good = encode_frame(T_SUBMIT, {})
        bad = bytearray(good)
        bad[4] = 250  # type byte lives after the 4-byte magic
        with pytest.raises(FrameError):
            decode_frame(bytes(bad))
        assert DIGEST_SIZE == 16  # wire contract: 128-bit BLAKE2b tags


# -- volume codec ---------------------------------------------------------------


class TestVolumeCodec:
    def test_noise_bearing_floats_travel_raw(self, patient):
        """zlib takes milliseconds to shave 5 % off these; the probe says no."""
        raw = np.ascontiguousarray(patient.intraop_mri.data).tobytes()
        entry = encode_volume(patient.intraop_mri)
        assert entry["codec"] == "raw" and entry["blob"] == raw
        rebuilt = decode_volume(entry)
        np.testing.assert_array_equal(rebuilt.data, patient.intraop_mri.data)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**30),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 40)),
        kind=st.sampled_from(["noise", "int16", "labels", "flat"]),
    )
    def test_property_every_codec_round_trips_bit_exactly(self, seed, shape, kind):
        rng = np.random.default_rng(seed)

        def volume():
            if kind == "noise":
                data = rng.normal(100.0, 30.0, shape)
            elif kind == "int16":
                data = rng.integers(-300, 3000, shape).astype(np.int16)
            elif kind == "labels":
                data = np.full(shape, 3, dtype=np.uint8)
                data[: shape[0] // 2] = rng.integers(0, 6)
            else:
                data = np.full(shape, 7.25)
            return ImageVolume(data, (1.0, 2.0, 0.5), (-3.0, 0.0, 4.0))

        scan = volume()
        entry = encode_volume(scan)
        assert entry["codec"] in ("raw", "zlib")
        if kind in ("labels", "flat") and scan.data.nbytes > 64:
            assert entry["codec"] != "raw"
        rebuilt = decode_volume(entry)
        assert rebuilt.data.dtype == scan.data.dtype
        assert rebuilt.data.tobytes() == scan.data.tobytes()
        assert rebuilt.spacing == scan.spacing and rebuilt.origin == scan.origin

    def test_unknown_codec_is_refused(self, patient):
        # "xor-zlib" (scans XORed against the preop MRI) is no longer a codec.
        for codec in ("lz4", "xor-zlib"):
            entry = encode_volume(patient.preop_labels)
            entry["codec"] = codec
            with pytest.raises(FrameError, match="unknown volume codec"):
                decode_volume(entry)

    def test_tampered_payload_fails_checksum(self, patient):
        entry = encode_volume(patient.preop_mri)
        entry["sha"] = "0" * len(entry["sha"])
        with pytest.raises(FrameError, match="checksum"):
            decode_volume(entry)


# -- one served-status rule for a live case and its journal replay -----------


@pytest.mark.faults
class TestServedStatus:
    @pytest.mark.parametrize(
        "plan, label, status",
        [
            (None, "full-fem", STATUS_COMPLETED),
            ("0:kill-rank=1", "full-fem", STATUS_COMPLETED),  # rescued by gmres@1
            ("0:stagnate-solver", "coarse-fem", STATUS_DEGRADED),
        ],
    )
    def test_live_case_and_journal_replay_agree(
        self, small_case, tmp_path, plan, label, status
    ):
        config = PipelineConfig(
            mesh_cell_mm=9.0,
            n_ranks=2,
            rigid_levels=1,
            rigid_max_iter=2,
            rigid_samples=2000,
            surface_iterations=60,
            prototypes_per_class=20,
            fault_plan=None if plan is None else FaultPlan.parse(plan, seed=7),
        )
        checkpoint = str(tmp_path / "case")
        request = CaseRequest(
            case_id="live",
            preop_mri=small_case.preop_mri,
            preop_labels=small_case.preop_labels,
            scans=[small_case.intraop_mri],
            config=config,
            checkpoint_dir=checkpoint,
        )
        live = _serve_case(request, LRUStore(1), threading.Event(), str(tmp_path), 0)
        assert [o.degradation for o in live.scans] == [label]
        replay = result_from_journal("live", checkpoint, completed_records(checkpoint, 1))
        assert live.status == replay.status == status

    def test_served_records_are_the_journals(self, small_case, tmp_path, monkeypatch):
        # A durable two-scan case served by a worker: each scan's record
        # is built once, the reply carries the committed records, and the
        # journal replay returns those same records, restored.
        built = []
        of = ScanRecord.of
        monkeypatch.setattr(
            ScanRecord, "of", classmethod(lambda cls, r: built.append(r.scan) or of(r))
        )
        checkpoint = str(tmp_path / "case")
        request = CaseRequest(
            case_id="live",
            preop_mri=small_case.preop_mri,
            preop_labels=small_case.preop_labels,
            scans=[small_case.intraop_mri, small_case.intraop_mri],
            config=PipelineConfig(
                mesh_cell_mm=9.0, rigid_levels=1, rigid_max_iter=1,
                rigid_samples=2000, surface_iterations=40, prototypes_per_class=20,
            ),
            checkpoint_dir=checkpoint,
        )
        live = _serve_case(request, LRUStore(1), threading.Event(), str(tmp_path), 0)
        assert live.status == STATUS_COMPLETED
        assert built == [0, 1]
        committed = completed_records(checkpoint, 2)

        def as_json(records):  # the journal's JSON: NaN-safe equality
            return [json.dumps(r.as_dict(), sort_keys=True) for r in records]

        assert as_json(live.scans) == as_json(committed)
        assert not any(r.restored for r in live.scans)
        replay = result_from_journal("live", checkpoint, committed)
        assert replay.scans == committed and all(r.restored for r in replay.scans)


# -- retry client: breaker + jitter ------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold_then_half_opens(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=30.0)
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
            assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1
        assert breaker.remaining_cooldown() > 0
        # Cooldown elapsed: one probe is allowed (half-open).
        breaker._opened_at -= 31.0
        assert breaker.state == "half-open"
        assert breaker.allow()

    def test_success_closes_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=30.0)
        breaker.record_failure()
        assert breaker.state == "open"
        breaker._opened_at -= 31.0
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2

    def test_jitter_deterministic_and_bounded(self):
        # base == cap: the client's delay is the jitter factor alone.
        def factor(token, attempt):
            return retry_backoff(1.0, 1.0, attempt, token)

        values = {factor("case-a", attempt) for attempt in range(1, 17)}
        assert all(1.0 <= v < 1.25 for v in values)
        assert len(values) > 8  # attempts decorrelate
        assert factor("case-a", 3) == factor("case-a", 3)
        assert factor("case-a", 3) != factor("case-b", 3)


# -- satellite: network wait charged against the deadline ---------------------


class TestNetworkWaitAccounting:
    def make_request(self, patient, deadline_s=None, enqueue_unix=None):
        return CaseRequest(
            case_id="case-n",
            preop_mri=patient.preop_mri,
            preop_labels=patient.preop_labels,
            scans=[patient.intraop_mri],
            deadline_s=deadline_s,
            client_enqueue_unix=enqueue_unix,
        )

    def test_network_wait_appears_in_verdict(self, patient):
        queue = AdmissionQueue(capacity=4)
        verdict = queue.admission_verdict(
            self.make_request(patient, deadline_s=60.0), waited_s=2.5
        )
        names = [check.stage for check in verdict.checks]
        assert names[0] == "network wait"
        assert verdict.checks[0].seconds == pytest.approx(2.5)
        assert verdict.within_budget

    def test_network_delay_counts_against_deadline(self, patient):
        est = ServiceEstimator()
        est.observe_preop(4.0)
        est.observe_scan(2.0)
        queue = AdmissionQueue(capacity=4, estimator=est)
        request = self.make_request(patient, deadline_s=10.0)
        ok, _, _ = queue.admit(request, waited_s=0.0)
        assert ok
        # Same case, but the submission spent 5 s on the wire: the
        # estimated completion (5 + 6) now exceeds the 10 s deadline.
        ok, verdict, detail = queue.admit(
            self.make_request(patient, deadline_s=10.0), waited_s=5.0
        )
        assert not ok
        assert verdict is not None and not verdict.within_budget
        assert "exceeds deadline" in detail

    def test_waited_backdates_queue_enqueue_time(self, patient):
        queue = AdmissionQueue(capacity=4)
        queue.admit(self.make_request(patient, deadline_s=30.0), waited_s=12.0)
        queued = queue.items()[0]
        # The deadline clock started ~12 s before local enqueue, so the
        # case expires ~18 s from now, not 30.
        local_enqueue = queued.admitted_monotonic + 12.0
        assert queued.expired(now=local_enqueue + 18.5)
        assert not queued.expired(now=local_enqueue + 17.5)


# -- satellite: fault-plan parse errors + kind-filtered polling ---------------


class TestFaultPlanParsing:
    def test_wire_grammar_variants(self):
        plan = ServingFaultPlan.parse(
            "1:dup-deliver,2:partition@0.5;3:delay-ack,4:kill-shard=1@0.1"
        )
        kinds = [spec.kind for spec in plan.specs]
        assert kinds == ["dup-deliver", "partition", "delay-ack", "kill-shard"]
        assert plan.specs[1].delay_s == pytest.approx(0.5)
        assert plan.specs[2].delay_s == pytest.approx(0.5)  # default ACK hold
        assert plan.specs[3].shard == 1

    def test_unknown_kind_error_lists_every_valid_kind(self):
        with pytest.raises(ValidationError) as excinfo:
            ServingFaultPlan.parse("2:explode-shard=0")
        message = str(excinfo.value)
        assert "explode-shard" in message
        for kind in SERVING_FAULTS + WIRE_FAULTS:
            assert kind in message

    def test_malformed_entry_error_names_grammar_and_chunk(self):
        with pytest.raises(ValidationError) as excinfo:
            ServingFaultPlan.parse("nonsense")
        message = str(excinfo.value)
        assert "nonsense" in message
        assert "AT:KIND" in message
        assert "kill-shard" in message and "partition" in message

    def test_spec_validation_matches_parse(self):
        with pytest.raises(ValidationError, match="unknown serving fault"):
            ServingFaultSpec(at=0, kind="nope")

    def test_due_filters_by_kind_family(self):
        plan = ServingFaultPlan.parse("0:kill-shard=0,0:reset-mid-frame")
        wire = plan.due(5, kinds=WIRE_FAULTS)
        assert [spec.kind for spec in wire] == ["reset-mid-frame"]
        gateway = plan.due(5, kinds=SERVING_FAULTS)
        assert [spec.kind for spec in gateway] == ["kill-shard"]
        # Each family's poll left the other family's specs untouched,
        # and nothing fires twice.
        assert plan.due(5, kinds=WIRE_FAULTS) == []
        assert len(plan.log) == 2
        assert any(entry.startswith("submit 0:") for entry in plan.log)
        assert any(entry.startswith("dispatch 0:") for entry in plan.log)
