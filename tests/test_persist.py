"""Durable-session tests: atomic IO, journal, checkpoint/resume, replay.

Covers the persistence layer bottom-up — the atomic write primitives,
the checksummed payload containers, the write-ahead journal's recovery
semantics — and then the session-level contract: a checkpointed session
resumes with its prototype set, history and solve-context counters
intact, and a deterministic replay reproduces the journaled
displacement-field checksums bit-exactly. Process-killing crash drills
(which must run in a subprocess) live in ``test_persist_crash.py``.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import IntraoperativePipeline
from repro.core.session import SurgicalSession
from repro.imaging.io import load_volume, save_volume
from repro.imaging.phantom import make_neurosurgery_case
from repro.persist import (
    ScanJournal,
    ScanRecord,
    ScanSummary,
    SessionStore,
    atomic_write_text,
    atomic_writer,
    checksum_array,
    config_from_manifest,
    config_to_manifest,
    load_payload,
    replay_session,
    save_payload,
)
from repro.resilience import FaultPlan
from repro.util import ValidationError

pytestmark = pytest.mark.persistence

SHAPE = (28, 28, 20)


def fast_config(**overrides) -> PipelineConfig:
    """A pipeline config sized for the small test phantom."""
    defaults = dict(
        mesh_cell_mm=9.0,
        n_ranks=2,
        rigid_levels=1,
        rigid_max_iter=2,
        rigid_samples=2000,
        surface_iterations=60,
        prototypes_per_class=20,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def make_cases():
    case0 = make_neurosurgery_case(shape=SHAPE, shift_mm=3.0, seed=7)
    case1 = make_neurosurgery_case(shape=SHAPE, shift_mm=5.0, seed=8)
    return case0, case1


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """A completed 2-scan durable session and its checkpoint directory.

    Module-scoped and treated as read-only: tests that mutate the
    checkpoint copy it first.
    """
    root = tmp_path_factory.mktemp("persist") / "ckpt"
    case0, case1 = make_cases()
    pipeline = IntraoperativePipeline(fast_config())
    session = SurgicalSession.begin(
        pipeline,
        case0.preop_mri,
        case0.preop_labels,
        checkpoint_dir=root,
        app={"scans": 2},
    )
    session.process(case0.intraop_mri)
    session.process(case1.intraop_mri)
    return root, session, (case0, case1)


def resume_copy(checkpointed, tmp_path):
    """A mutable copy of the module checkpoint, resumed into a session."""
    root, _, cases = checkpointed
    copy = tmp_path / "ckpt"
    shutil.copytree(root, copy)
    store = SessionStore.open(copy)
    config = config_from_manifest(store.manifest["config"], base=fast_config())
    pipeline = IntraoperativePipeline(config)
    return SurgicalSession.resume(pipeline, copy), cases


class TestAtomicIO:
    def test_replace_is_atomic_on_failure(self, tmp_path):
        path = tmp_path / "file.txt"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_writer(path) as fh:
                fh.write("half-written")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path], "temp file must be cleaned up"

    def test_write_text_replaces(self, tmp_path):
        path = tmp_path / "file.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert list(tmp_path.iterdir()) == [path]

    def test_checksum_covers_dtype_and_shape(self):
        a = checksum_array(np.zeros(4))
        assert a != checksum_array(np.zeros((2, 2)))
        assert a != checksum_array(np.zeros(4, dtype=np.float32))
        assert a == checksum_array(np.zeros(4))


class TestPayloads:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "p.npz"
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1, 2, 3])}
        shas = save_payload(path, "test", **arrays, skipped=None)
        assert set(shas) == {"a", "b"}
        fields = load_payload(path, "test")
        assert set(fields) == {"a", "b"}
        np.testing.assert_array_equal(fields["a"], arrays["a"])

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "p.npz"
        save_payload(path, "test", a=np.zeros(3))
        with pytest.raises(ValidationError, match="not a repro 'other' payload"):
            load_payload(path, "other")

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "p.npz"
        save_payload(path, "test", a=np.zeros(3))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="p.npz"):
            load_payload(path, "test")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no such checkpoint payload"):
            load_payload(tmp_path / "absent.npz", "test")


class TestImagingIOHardening:
    def test_truncated_archive_rejected(self, tmp_path, small_case):
        path = save_volume(tmp_path / "vol.npz", small_case.preop_mri)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValidationError, match="vol.npz"):
            load_volume(path)

    def test_foreign_archive_rejected(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, unrelated=np.zeros(3))
        with pytest.raises(ValidationError, match="foreign"):
            load_volume(path)

    def test_checksum_roundtrip(self, tmp_path, small_case):
        path = save_volume(tmp_path / "vol.npz", small_case.preop_mri)
        volume = load_volume(path)
        np.testing.assert_array_equal(volume.data, small_case.preop_mri.data)


def _record(scan, sha="aa"):
    return ScanRecord(
        scan=scan, result_file=f"scans/scan_{scan:04d}_result.npz",
        nodal_sha=sha, grid_sha=sha,
    )


class TestJournal:
    def test_latest_commit_wins(self, tmp_path):
        journal = ScanJournal(tmp_path / "j.jsonl")
        journal.begin_scan(0, "in.npz", "s0")
        journal.commit_scan(_record(0, "first"))
        journal.begin_scan(0, "in.npz", "s0")
        journal.commit_scan(_record(0, "second"))
        reloaded = ScanJournal.load(tmp_path / "j.jsonl")
        (record,) = reloaded.committed()
        assert record.nodal_sha == "second"
        assert reloaded.interrupted() == []

    def test_interrupted_scan_reported(self, tmp_path):
        journal = ScanJournal(tmp_path / "j.jsonl")
        journal.begin_scan(0, "a.npz", "s0")
        journal.commit_scan(_record(0))
        journal.begin_scan(1, "b.npz", "s1")
        assert ScanJournal.load(tmp_path / "j.jsonl").interrupted() == [1]

    def test_torn_trailing_line_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ScanJournal(path)
        journal.begin_scan(0, "a.npz", "s0")
        journal.commit_scan(_record(0))
        with path.open("a") as fh:
            fh.write('{"type": "commit", "scan": 1, "rec')  # torn mid-write
        reloaded = ScanJournal.load(path)
        assert len(reloaded.committed()) == 1
        assert any(e.get("type") == "note" for e in reloaded.entries)

    def test_torn_interior_line_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"type": "meta", "format": "repro-journal", "version": 1}\n'
            "{garbage\n"
            '{"type": "begin", "scan": 0}\n'
        )
        with pytest.raises(ValidationError, match="not valid JSON"):
            ScanJournal.load(path)

    def test_foreign_and_missing(self, tmp_path):
        with pytest.raises(ValidationError, match="no session journal"):
            ScanJournal.load(tmp_path / "absent.jsonl")
        bad = tmp_path / "foreign.jsonl"
        bad.write_text('{"type": "meta", "format": "something-else"}\n')
        with pytest.raises(ValidationError, match="not a repro session journal"):
            ScanJournal.load(bad)


class TestCheckpointLayout:
    def test_directory_contents(self, checkpointed):
        root, _, _ = checkpointed
        for name in (
            "MANIFEST.json",
            "journal.jsonl",
            "preop_mri.npz",
            "preop_labels.npz",
            "prototypes.npz",
            "scans/scan_0000_input.npz",
            "scans/scan_0000_result.npz",
            "scans/scan_0001_result.npz",
        ):
            assert (root / name).is_file(), f"missing {name}"
        manifest = json.loads((root / "MANIFEST.json").read_text())
        assert manifest["format"] == "repro-checkpoint"
        assert manifest["n_committed"] == 2
        assert manifest["app"]["scans"] == 2

    def test_refuses_to_clobber(self, checkpointed):
        root, _, (case0, _) = checkpointed
        with pytest.raises(ValidationError, match="already contains"):
            SessionStore.create(
                root, fast_config(), case0.preop_mri, case0.preop_labels
            )

    def test_open_missing_and_empty(self, tmp_path):
        with pytest.raises(ValidationError, match="does not exist"):
            SessionStore.open(tmp_path / "absent")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValidationError, match="no checkpoint manifest"):
            SessionStore.open(empty)

    def test_resume_missing_and_empty(self, tmp_path):
        pipeline = IntraoperativePipeline(fast_config())
        with pytest.raises(ValidationError):
            SurgicalSession.resume(pipeline, tmp_path / "absent")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValidationError):
            SurgicalSession.resume(pipeline, empty)


class TestResume:
    def test_history_and_prototypes_restored(self, checkpointed, tmp_path):
        session, _ = resume_copy(checkpointed, tmp_path)
        assert session.n_scans == 2
        assert all(result.restored for result in session.history)
        assert session._prototypes is not None
        assert "restored" in session.summary_table()
        # Journaled facts survive the round trip.
        assert np.isfinite(session.latest().match_simulated_rms)
        assert session.latest().simulation.solver.iterations > 0

    def test_restored_fields_match_original(self, checkpointed, tmp_path):
        _, original, _ = checkpointed
        session, _ = resume_copy(checkpointed, tmp_path)
        # Scan 0 is a ScanSummary on both sides (a live session keeps of
        # a superseded scan exactly what a resume restores of it); scan 1,
        # the latest, is a full result on both.
        live, restored = original.history[0], session.history[0]
        assert isinstance(live, ScanSummary) and isinstance(restored, ScanSummary)
        assert restored.restored and not live.restored
        np.testing.assert_array_equal(
            live.nodal_displacement, restored.nodal_displacement
        )
        assert live.grid_displacement is None and restored.grid_displacement is None
        assert restored.record.grid_sha == live.record.grid_sha
        assert restored.record.match_simulated_rms == live.record.match_simulated_rms
        np.testing.assert_array_equal(
            live.grid_on(original.preop), restored.grid_on(session.preop)
        )
        live, restored = original.history[1], session.history[1]
        np.testing.assert_array_equal(
            live.nodal_displacement, restored.nodal_displacement
        )
        np.testing.assert_array_equal(
            live.grid_displacement, restored.grid_displacement
        )
        assert restored.match_simulated_rms == live.match_simulated_rms

    def test_warm_fast_path_survives_resume(self, checkpointed, tmp_path):
        # The cache-hit fast path, with the counters carried on from the
        # last committed record (the journal holds them).
        session, cases = resume_copy(checkpointed, tmp_path)
        stats = session.preop.solve_context.stats
        assert (stats.hits, stats.misses) == (2, 1), "counters restored"
        next_scan = make_neurosurgery_case(shape=SHAPE, shift_mm=6.0, seed=9)
        result = session.process(next_scan.intraop_mri)
        assert result.simulation.cache_hit
        stats = result.simulation.cache_stats
        assert (stats.hits, stats.misses) == (3, 1)

    def test_invalidate_after_resume_resets_stats(self, checkpointed, tmp_path):
        session, _ = resume_copy(checkpointed, tmp_path)
        assert session.preop.solve_context.stats.hits > 0
        session.invalidate_solve_context()
        stats = session.preop.solve_context.stats
        assert (stats.hits, stats.misses) == (0, 0)

    def test_degraded_scan_does_not_seed_prototypes(self, tmp_path):
        # Scan 0 is unusable (50% NaN) -> rigid-only degradation: the
        # image stages never ran, so nothing may be recorded as the
        # session's prototype set — neither live nor across a resume.
        case0, _ = make_cases()
        root = tmp_path / "ckpt"
        plan = FaultPlan.parse("0:scan-nan=0.5", seed=3)
        pipeline = IntraoperativePipeline(fast_config(fault_plan=plan))
        session = SurgicalSession.begin(
            pipeline, case0.preop_mri, case0.preop_labels, checkpoint_dir=root
        )
        result = session.process(case0.intraop_mri)
        assert result.degradation is not None and result.degradation.degraded
        assert not (root / "prototypes.npz").exists()
        assert SessionStore.open(root).load_prototypes() is None
        resumed = SurgicalSession.resume(
            IntraoperativePipeline(fast_config()), root
        )
        assert resumed._prototypes is None


class TestReplay:
    def test_replay_matches(self, checkpointed):
        root, _, _ = checkpointed
        report = replay_session(root)
        assert report.ok
        assert len(report.matched) == 2 and not report.skipped
        assert "REPLAY OK" in report.render()

    def test_tampered_journal_detected(self, checkpointed, tmp_path):
        root, _, _ = checkpointed
        copy = tmp_path / "ckpt"
        shutil.copytree(root, copy)
        journal = ScanJournal.load(copy / "journal.jsonl")
        for entry in journal.entries:
            if entry.get("type") == "commit":
                entry["record"]["nodal_sha"] = "0" * 32
                break
        journal.flush()
        report = replay_session(copy)
        assert not report.ok
        assert report.mismatched and "MISMATCH" in report.render()

    def test_corrupted_result_payload_fails_resume(self, checkpointed, tmp_path):
        root, _, _ = checkpointed
        copy = tmp_path / "ckpt"
        shutil.copytree(root, copy)
        target = copy / "scans" / "scan_0001_result.npz"
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        target.write_bytes(bytes(raw))
        pipeline = IntraoperativePipeline(fast_config())
        with pytest.raises(ValidationError, match="scan_0001_result.npz"):
            SurgicalSession.resume(pipeline, copy)


class TestOlderCheckpoint:
    def test_removed_config_fields_are_ignored(self):
        # Older versions recorded skip_rigid and precompute_solve_context,
        # two PipelineConfig fields that are gone: a manifest carrying
        # them loads into the same config as one without them.
        manifest = config_to_manifest(fast_config())
        older = dict(manifest, skip_rigid=False, precompute_solve_context=True)
        config = config_from_manifest(older)
        assert config == config_from_manifest(manifest)
        assert not hasattr(config, "skip_rigid")
        assert not hasattr(config, "precompute_solve_context")

    def test_warm_start_fields_of_older_versions_still_open(
        self, checkpointed, tmp_path
    ):
        # Older versions wrote a warm-start flag into the manifest config,
        # the solve context's state into every result payload, and a
        # "warm" flag into each record's cache dict. None of it is read.
        root, original, _ = checkpointed
        copy = tmp_path / "ckpt"
        shutil.copytree(root, copy)
        manifest_path = copy / "MANIFEST.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["warm_start"] = True
        manifest_path.write_text(json.dumps(manifest))
        for payload in sorted((copy / "scans").glob("scan_*_result.npz")):
            fields = load_payload(payload, "scan-result")
            save_payload(
                payload,
                "scan-result",
                **fields,
                context_fingerprint=np.arange(16, dtype=np.uint8),
                context_solution=np.ones(12),
                context_stats=np.array([2, 1, 0], dtype=np.int64),
            )
        journal = ScanJournal.load(copy / "journal.jsonl")
        for entry in journal.entries:
            if entry.get("type") == "commit":
                entry["record"]["cache"]["warm"] = True
        journal.flush()

        store = SessionStore.open(copy)
        assert len(store.committed()) == 2
        config = config_from_manifest(store.manifest["config"], base=fast_config())
        session = SurgicalSession.resume(IntraoperativePipeline(config), copy)
        assert session.n_scans == 2
        summary = session.summary_table()
        assert "restored" in summary and "hit+warm" not in summary
        np.testing.assert_array_equal(
            session.latest().nodal_displacement, original.latest().nodal_displacement
        )
        report = replay_session(copy)
        assert report.scans[0].matched and report.ok


class TestPostHocCheckpoint:
    def test_checkpoint_then_resume(self, tmp_path):
        case0, _ = make_cases()
        pipeline = IntraoperativePipeline(fast_config())
        session = SurgicalSession.begin(
            pipeline, case0.preop_mri, case0.preop_labels
        )
        assert session.store is None
        with pytest.raises(ValidationError, match="checkpoint_dir"):
            session.checkpoint()
        session.process(case0.intraop_mri)
        root = session.checkpoint(tmp_path / "posthoc")
        (record,) = SessionStore.open(root).committed()
        assert record.input_file is None, "post-hoc commits have no input"
        resumed = SurgicalSession.resume(IntraoperativePipeline(fast_config()), root)
        assert resumed.n_scans == 1 and resumed.history[0].restored
        # Without journaled inputs the scan cannot be replay-verified.
        report = replay_session(root)
        assert report.skipped and not report.mismatched
