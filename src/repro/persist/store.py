"""The per-session checkpoint directory: layout, commits, recovery.

A :class:`SessionStore` owns one checkpoint directory::

    <root>/
      MANIFEST.json        versioned manifest: config, app args, file index
      journal.jsonl        write-ahead scan journal (atomic rewrites)
      preop_mri.npz        preoperative acquisition (checksummed npz)
      preop_labels.npz     preoperative segmentation
      prototypes.npz       latest good prototype set (locations/labels/features)
      scans/
        scan_0000_input.npz    journaled intraoperative input (write-ahead)
        scan_0000_result.npz   committed essentials (nodal + grid displacement)

    No solve-context state is stored: a scan's field depends only on the
    patient model, the prototype locations and that scan, so a resumed
    session rebuilds the model and carries on. Result payloads written
    by older versions also hold ``context_*`` arrays; they are ignored.

Per scan the protocol is: durably record the *input* and a ``begin``
journal entry before any processing (write-ahead), process, persist the
result payloads, then append the ``commit`` journal entry — the atomic
commit point — and finally refresh the manifest. A crash anywhere in
that sequence leaves the directory resumable at the previous committed
scan; the journaled input of the interrupted scan is preserved for the
postmortem.

Injected ``crash-after`` faults (:class:`repro.resilience.FaultPlan`)
are honored at the barriers named in
:data:`repro.resilience.faults.CRASH_STAGES`; each journals itself
before calling :func:`os._exit`, so a resumed session re-installing the
same plan does not re-fire it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.fem.context import CacheStats
from repro.imaging.io import load_volume, save_volume
from repro.imaging.volume import ImageVolume
from repro.obs.trace import get_tracer
from repro.persist.checkpoint import (
    CHECKPOINT_VERSION,
    MANIFEST_FORMAT,
    ScanRecord,
    ScanSummary,
    config_to_manifest,
    load_payload,
    save_payload,
)
from repro.persist.journal import ScanJournal
from repro.segmentation.prototypes import PrototypeSet
from repro.util import ValidationError
from repro.util.atomicio import atomic_write_json, checksum_array, checksum_file

#: Exit status of an injected ``crash-after`` fault (mirrors SIGKILL's 128+9,
#: unmistakable in subprocess-based drills).
CRASH_EXIT_CODE = 137


class SessionStore:
    """Durable state of one :class:`repro.core.SurgicalSession`."""

    MANIFEST_NAME = "MANIFEST.json"
    JOURNAL_NAME = "journal.jsonl"
    SCAN_DIR = "scans"
    PREOP_MRI = "preop_mri.npz"
    PREOP_LABELS = "preop_labels.npz"
    PROTOTYPES = "prototypes.npz"

    def __init__(
        self,
        root: Path,
        manifest: dict,
        journal: ScanJournal,
        tracer=None,
        metrics=None,
    ):
        self.root = Path(root)
        self.manifest = manifest
        self.journal = journal
        self.plan = None
        self.tracer = tracer
        self.metrics = metrics

    # -- construction -------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: str | Path,
        config,
        preop_mri: ImageVolume,
        preop_labels: ImageVolume,
        app: dict | None = None,
        tracer=None,
        metrics=None,
    ) -> "SessionStore":
        """Initialize a fresh checkpoint directory for a new session.

        Refuses to overwrite an existing checkpoint: resuming and
        re-checkpointing must be explicit, never an accidental clobber
        of an OR session's durable state.
        """
        root = Path(root)
        if (root / cls.MANIFEST_NAME).exists():
            raise ValidationError(
                f"{root}: already contains a session checkpoint "
                "(resume it, or choose a fresh directory)"
            )
        (root / cls.SCAN_DIR).mkdir(parents=True, exist_ok=True)
        files = {}
        for rel, volume in (
            (cls.PREOP_MRI, preop_mri),
            (cls.PREOP_LABELS, preop_labels),
        ):
            path = save_volume(root / rel, volume)
            files[rel] = {"sha": checksum_file(path), "bytes": path.stat().st_size}
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": CHECKPOINT_VERSION,
            "created": time.time(),
            "config": config_to_manifest(config),
            "app": dict(app or {}),
            "files": files,
            "n_committed": 0,
        }
        journal = ScanJournal(root / cls.JOURNAL_NAME)
        journal.flush()
        atomic_write_json(root / cls.MANIFEST_NAME, manifest)
        store = cls(root, manifest, journal, tracer=tracer, metrics=metrics)
        store.attach_plan(config.fault_plan)
        return store

    @classmethod
    def open(cls, root: str | Path, tracer=None, metrics=None) -> "SessionStore":
        """Open an existing checkpoint directory for resume/replay.

        Raises :class:`~repro.util.ValidationError` (file, reason) on a
        missing directory, an empty/foreign directory, or a corrupted
        manifest/journal — never a raw JSON/OS exception.
        """
        root = Path(root)
        if not root.is_dir():
            raise ValidationError(f"{root}: checkpoint directory does not exist")
        manifest_path = root / cls.MANIFEST_NAME
        if not manifest_path.is_file():
            raise ValidationError(
                f"{root}: no checkpoint manifest found (empty or foreign directory)"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(
                f"{manifest_path}: cannot read checkpoint manifest ({exc})"
            ) from exc
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ValidationError(
                f"{manifest_path}: not a repro checkpoint manifest "
                f"(format={manifest.get('format')!r})"
            )
        if int(manifest.get("version", 0)) > CHECKPOINT_VERSION:
            raise ValidationError(
                f"{manifest_path}: checkpoint version {manifest.get('version')} "
                f"is newer than supported ({CHECKPOINT_VERSION})"
            )
        journal = ScanJournal.load(root / cls.JOURNAL_NAME)
        return cls(root, manifest, journal, tracer=tracer, metrics=metrics)

    # -- fault-plan wiring ---------------------------------------------------

    def attach_plan(self, plan) -> None:
        """Install the fault plan consulted at crash barriers.

        Crashes already journaled by a previous process are marked
        triggered on the plan, so re-processing an interrupted scan
        does not re-fire them.
        """
        self.plan = plan
        if plan is not None:
            for scan, stage in self.journal.crashes():
                plan.mark_crashed(scan, stage)

    def crash_point(self, scan: int, stage: str) -> None:
        """Honor a scheduled ``crash-after`` fault at a persistence barrier.

        Journals the crash (durably) as its last act, then kills the
        process with :data:`CRASH_EXIT_CODE` — no cleanup, no flushing,
        exactly like a power cut. The ``mid-write`` barrier additionally
        leaves a torn temp file beside the manifest, modelling a crash
        between the temp write and the atomic ``os.replace``.
        """
        plan = self.plan
        spec = plan.crash_spec(scan, stage) if plan is not None else None
        if spec is None:
            return
        spec.triggered = True
        plan.log.append(spec.describe())
        self.journal.record_crash(scan, stage)
        if stage == "mid-write":
            blob = json.dumps(self.manifest)
            torn = self.manifest_path.with_name(
                self.manifest_path.name + f".{scan}.tmp"
            )
            torn.write_text(blob[: max(8, len(blob) // 2)])
        os._exit(CRASH_EXIT_CODE)

    # -- paths ---------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / self.MANIFEST_NAME

    def _input_rel(self, scan: int) -> str:
        return f"{self.SCAN_DIR}/scan_{scan:04d}_input.npz"

    def _result_rel(self, scan: int) -> str:
        return f"{self.SCAN_DIR}/scan_{scan:04d}_result.npz"

    def _tracer(self):
        return self.tracer if self.tracer is not None else get_tracer()

    # -- the per-scan protocol ----------------------------------------------

    def journal_begin(self, scan: int, volume: ImageVolume | None) -> None:
        """Write-ahead step: persist the input, journal the intent."""
        t0 = time.perf_counter()
        with self._tracer().span("persist.begin", kind="persist", scan=scan) as span:
            if volume is None:
                self.journal.begin_scan(scan, None, None)
            else:
                rel = self._input_rel(scan)
                path = save_volume(self.root / rel, volume)
                sha = checksum_file(path)
                self.journal.begin_scan(scan, rel, sha)
                span.set(bytes=path.stat().st_size)
        if self.metrics is not None:
            self.metrics.counter("persist.begins").inc()
            self.metrics.histogram("persist.begin.seconds").observe(
                time.perf_counter() - t0
            )
        self.crash_point(scan, "begin")

    def commit_scan(self, scan: int, result, prototypes=None, grid=None) -> ScanRecord:
        """Persist a processed scan's essentials and commit the journal.

        The payloads (result arrays, refreshed prototypes) all land via
        atomic replaces *before* the journal's ``commit`` entry — the
        single durable commit point — followed by a manifest refresh. ``result`` is an
        :class:`~repro.core.IntraoperativeResult`, or the
        :class:`~repro.persist.checkpoint.ScanSummary` a session kept of
        one together with its dense ``grid`` field
        (:meth:`ScanSummary.grid_on`). Either way the scan's own
        ``record`` is committed with the store's file fields added, and
        ``result.record`` becomes the committed record.
        """
        t0 = time.perf_counter()
        tracer = self._tracer()
        with tracer.span("persist.commit", kind="persist", scan=scan) as span:
            rel = self._result_rel(scan)
            nodal = np.asarray(result.nodal_displacement, dtype=float)
            if grid is None:
                grid = result.grid_displacement
            arrays = {"nodal": nodal, "grid": np.asarray(grid, dtype=float)}
            begun = {e.get("scan"): e for e in self.journal.begun()}
            begin_entry = begun.get(scan, {})
            files = {
                "result_file": rel,
                "input_file": begin_entry.get("input_file"),
                "input_sha": begin_entry.get("input_sha"),
            }
            record = replace(result.record, **files)
            known = {"nodal": record.nodal_sha, "grid": record.grid_sha}
            save_payload(self.root / rel, "scan-result", known, **arrays)
            self._note_file(rel)

            if prototypes is not None and record.prototypes_carried:
                save_payload(
                    self.root / self.PROTOTYPES,
                    "prototypes",
                    points_world=prototypes.points_world,
                    labels=prototypes.labels,
                    features=prototypes.features,
                )
                self._note_file(self.PROTOTYPES)
            self.crash_point(scan, "mid-write")
            self.journal.commit_scan(record)
            result.record = record
            self.sync_manifest()
            span.set(bytes=(self.root / rel).stat().st_size)
        if self.metrics is not None:
            self.metrics.counter("persist.commits").inc()
            self.metrics.histogram("persist.commit.seconds").observe(
                time.perf_counter() - t0
            )
            self.metrics.gauge("persist.total_bytes").set(self.total_bytes())
        return record

    def _note_file(self, rel: str) -> None:
        path = self.root / rel
        self.manifest.setdefault("files", {})[rel] = {
            "sha": checksum_file(path),
            "bytes": path.stat().st_size,
        }

    def sync_manifest(self) -> None:
        """Atomically rewrite the manifest from current in-memory state."""
        self.manifest["n_committed"] = len(self.journal.committed())
        atomic_write_json(self.manifest_path, self.manifest)

    # -- recovery ------------------------------------------------------------

    def _verify_manifest_file(self, rel: str) -> Path:
        """Check an *immutable* file against the manifest's byte checksum.

        Only meaningful for files written once at :meth:`create` (the
        preoperative volumes). Mutable payloads (prototypes, scan
        results) are rewritten before the journal's commit point,
        so their manifest index entries can legitimately lag by one
        crash window — they self-verify through their embedded payload
        checksums instead.
        """
        path = self.root / rel
        entry = self.manifest.get("files", {}).get(rel)
        if entry is not None and path.is_file():
            actual = checksum_file(path)
            if actual != entry["sha"]:
                raise ValidationError(
                    f"{path}: checksum mismatch against manifest "
                    f"(stored {entry['sha']}, actual {actual}) — file corrupted?"
                )
        return path

    def load_preop(self) -> tuple[ImageVolume, ImageVolume]:
        """The checkpointed preoperative acquisition + segmentation."""
        mri = load_volume(self._verify_manifest_file(self.PREOP_MRI))
        labels = load_volume(self._verify_manifest_file(self.PREOP_LABELS))
        return mri, labels

    def load_prototypes(self) -> PrototypeSet | None:
        """The latest good prototype set, or ``None`` if never recorded."""
        path = self.root / self.PROTOTYPES
        if not path.is_file():
            return None
        fields = load_payload(path, "prototypes")
        return PrototypeSet(
            points_world=np.asarray(fields["points_world"], dtype=float),
            labels=np.asarray(fields["labels"], dtype=np.intp),
            features=np.asarray(fields["features"], dtype=float),
        )

    def committed(self) -> list[ScanRecord]:
        return self.journal.committed()

    def load_input(self, record: ScanRecord) -> ImageVolume:
        """The journaled input volume of a committed scan."""
        if record.input_file is None:
            raise ValidationError(
                f"scan {record.scan}: no journaled input volume "
                "(checkpoint was taken post-hoc)"
            )
        path = self.root / record.input_file
        if record.input_sha is not None and path.is_file():
            actual = checksum_file(path)
            if actual != record.input_sha:
                raise ValidationError(
                    f"{path}: checksum mismatch against journal "
                    f"(stored {record.input_sha}, actual {actual})"
                )
        return load_volume(path)

    def load_history(self, preop) -> list:
        """Reconstruct the committed history as a resumed session holds it.

        Every scan comes back holding the journal's record
        (``record.restored``): the latest as an
        :class:`~repro.core.IntraoperativeResult` with its deformed
        volume recomputed from the stored field (it is the ``previous``
        of the next scan), every older one as the
        :class:`~repro.persist.checkpoint.ScanSummary` a live session
        would have kept of it.
        """
        from repro.resilience.degrade import DegradationReport
        from repro.resilience.policy import parse_level

        records = self.committed()
        results = []
        for record in records:
            fields = load_payload(self.root / record.result_file, "scan-result")
            nodal = np.asarray(fields["nodal"], dtype=float)
            grid = np.asarray(fields["grid"], dtype=float)
            for name, value, sha in (
                ("nodal", nodal, record.nodal_sha),
                ("grid", grid, record.grid_sha),
            ):
                actual = checksum_array(value)
                if actual != sha:
                    raise ValidationError(
                        f"{self.root / record.result_file}: {name} displacement "
                        f"checksum mismatch against journal "
                        f"(stored {sha}, actual {actual})"
                    )
            degradation = None
            if record.degradation is not None:
                degradation = DegradationReport(
                    level=parse_level(record.degradation),
                    notes=["restored from checkpoint"],
                )
            if record is records[-1]:
                latest = _restored_result(record, nodal, grid, preop, degradation)
                latest.record = record
                results.append(latest)
            else:
                # As a live session keeps it (ScanSummary.of).
                summary = ScanSummary(
                    record=record, nodal_displacement=nodal, degradation=degradation
                )
                summary.keep_grid(grid, results[-1] if results else None)
                results.append(summary)
        return results

    # -- bookkeeping ---------------------------------------------------------

    def total_bytes(self) -> int:
        """Bytes currently occupied by the checkpoint directory."""
        return sum(
            p.stat().st_size for p in self.root.rglob("*") if p.is_file()
        )

    def describe(self) -> str:
        committed = self.journal.committed()
        interrupted = self.journal.interrupted()
        parts = [
            f"{len(committed)} scan(s) committed",
            f"{self.total_bytes() / 1e6:.1f} MB",
        ]
        if interrupted:
            parts.append(f"interrupted scan(s): {interrupted}")
        crashes = self.journal.crashes()
        if crashes:
            parts.append(
                "journaled crash(es): "
                + "; ".join(f"scan {s} after {stage}" for s, stage in crashes)
            )
        return " | ".join(parts)


def completed_records(root: str | Path, n_scans: int) -> list[ScanRecord] | None:
    """The journal's committed records iff the whole case already ran.

    The exactly-once gate for duplicate network deliveries: a durable
    case whose checkpoint directory holds a ``commit`` record for every
    scan ``0..n_scans-1`` has already been fully served — a resubmission
    (client retry after a torn reply, injected duplicate delivery) can
    be answered straight from the journal instead of solving twice.
    Returns the committed :class:`ScanRecord` list in scan order, or
    ``None`` when the directory holds no journal, the journal is
    unreadable (torn, foreign), or any scan is missing its commit —
    i.e. whenever the case must actually (re)run.
    """
    journal_path = Path(root) / SessionStore.JOURNAL_NAME
    if n_scans < 1 or not journal_path.is_file():
        return None
    try:
        journal = ScanJournal.load(journal_path)
        committed = {record.scan: record for record in journal.committed()}
    except (ValidationError, OSError, ValueError, KeyError, TypeError):
        return None
    if any(scan not in committed for scan in range(n_scans)):
        return None
    return [committed[scan] for scan in range(n_scans)]


def _restored_result(
    record: ScanRecord, nodal: np.ndarray, grid: np.ndarray, preop, degradation
):
    """Build the restored latest scan as an IntraoperativeResult.

    The next scan reads it as its ``previous`` and callers read it as
    :meth:`SurgicalSession.latest`, so it carries the journaled
    essentials (displacements, match metrics, timeline, solver/cache
    facts), the deformed volume recomputed from the stored field, and
    honest stand-ins for what was deliberately not persisted: a
    synthetic solver record and a stub segmentation.
    """
    from repro.core.pipeline import IntraoperativeResult
    from repro.core.timeline import Timeline, TimelineEntry
    from repro.machines.cost import NullTelemetry
    from repro.parallel.simulation import ParallelSimulation
    from repro.resilience.degrade import resample_through_field, stub_correspondence
    from repro.solver.gmres import GMRESResult

    solver = GMRESResult(
        x=np.zeros(0),
        converged=record.solver_converged,
        iterations=record.solver_iterations,
        restarts=record.solver_restarts,
        residual_norm=record.solver_residual,
        history=[],
    )
    cache_stats = (
        None
        if record.cache_stats is None
        else CacheStats.from_dict(record.cache_stats)
    )
    simulation = ParallelSimulation(
        displacement=nodal,
        solver=solver,
        n_equations=0,
        n_dof_total=int(nodal.size),
        initialization_seconds=0.0,
        assembly_seconds=0.0,
        solve_seconds=0.0,
        cluster=NullTelemetry(),
        system=None,
        cache_hit=record.cache_hit,
        cache_stats=cache_stats,
    )
    timeline = Timeline()
    for stage, seconds, period, counts in record.timeline:
        timeline.entries.append(TimelineEntry(stage, seconds, period, dict(counts)))
    for note in record.notes:
        timeline.note(str(note))
    timeline.note("restored from checkpoint")

    segmentation = ImageVolume(
        np.zeros(preop.labels.shape, dtype=np.int16),
        preop.labels.spacing,
        preop.labels.origin,
    )
    return IntraoperativeResult(
        deformed_mri=resample_through_field(preop.mri, grid),
        nodal_displacement=nodal,
        grid_displacement=grid,
        segmentation=segmentation,
        rigid=None,
        correspondence=stub_correspondence(preop.surface),
        simulation=simulation,
        timeline=timeline,
        prototypes=None,
        match_rigid_rms=record.match_rigid_rms,
        match_simulated_rms=record.match_simulated_rms,
        match_rigid_mi=record.match_rigid_mi,
        match_simulated_mi=record.match_simulated_mi,
        degradation=degradation,
        scan=record.scan,
    )
