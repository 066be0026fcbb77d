"""Surgical session orchestration across multiple intraoperative scans.

The paper's clinical workflow acquires several volumetric scans over a
procedure, re-running the registration for each. :class:`SurgicalSession`
owns the state that persists between scans: the preoperative model
(built once, before surgery) and the prototype voxels (selected on the
first scan, automatically re-used afterwards — "the spatial location of
the prototype voxels is recorded and is used to update the statistical
model automatically when further intraoperative images are acquired").

Sessions can be made **durable** by attaching a checkpoint directory
(``checkpoint_dir=`` on :meth:`SurgicalSession.begin`, or a post-hoc
:meth:`SurgicalSession.checkpoint`). Every scan is then journaled
write-ahead and committed atomically through
:class:`repro.persist.SessionStore`; after a crash,
:meth:`SurgicalSession.resume` reopens the directory, rebuilds the
preoperative model deterministically, restores the prototype set, and
reconstructs the committed history — including the ``previous`` result
the degradation ladder needs. A scan's field depends only on the
patient model, the prototype locations and that scan, so nothing else
crosses the crash. :func:`repro.persist.replay_session` verifies a
checkpoint end-to-end by re-running it and demanding bit-exact
displacement fields.

What a session holds does not grow with the scans it has processed:
only the latest scan is kept as a full result (it is the next scan's
``previous``); every older one is replaced by its
:class:`repro.persist.ScanSummary` — see DESIGN.md, "What a session
holds".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import (
    IntraoperativePipeline,
    IntraoperativeResult,
    PreoperativeModel,
)
from repro.fem.context import CacheStats
from repro.imaging.volume import ImageVolume
from repro.obs.flight import get_flight_recorder
from repro.obs.trace import get_tracer
from repro.persist.checkpoint import ScanSummary
from repro.persist.store import SessionStore
from repro.segmentation.prototypes import PrototypeSet
from repro.util import ValidationError, format_table


@dataclass
class SurgicalSession:
    """Stateful multi-scan session around one pipeline + preop model.

    Attributes
    ----------
    pipeline:
        The configured pipeline.
    preop:
        The preoperative model (mesh, localization, surface).
    history:
        One entry per processed scan, in order: the latest as its full
        :class:`IntraoperativeResult`, every older one as the
        :class:`repro.persist.ScanSummary` kept of it. After
        :meth:`resume`, entries recovered from the checkpoint have
        ``restored=True``.
    store:
        The attached :class:`repro.persist.SessionStore`, or ``None``
        for an in-memory (non-durable) session.
    """

    pipeline: IntraoperativePipeline
    preop: PreoperativeModel
    history: list[IntraoperativeResult | ScanSummary] = field(default_factory=list)
    store: SessionStore | None = field(default=None, repr=False)
    _prototypes: PrototypeSet | None = field(default=None, repr=False)

    @classmethod
    def begin(
        cls,
        pipeline: IntraoperativePipeline,
        preop_mri: ImageVolume,
        preop_labels: ImageVolume,
        checkpoint_dir=None,
        app: dict | None = None,
        preop: PreoperativeModel | None = None,
    ) -> "SurgicalSession":
        """Prepare the preoperative model and open the session.

        With ``checkpoint_dir``, the session is durable from the first
        scan: the preoperative volumes and config land in a fresh
        checkpoint directory (refusing to clobber an existing one) and
        every processed scan is journaled and committed atomically.
        ``app`` is free-form application metadata (e.g. CLI arguments)
        stored in the manifest so a resume can regenerate its inputs.

        ``preop`` skips the (expensive) preoperative preparation by
        adopting an already-built model — the serving layer's per-patient
        cache. The caller guarantees it was prepared from exactly
        ``preop_mri``/``preop_labels`` under this pipeline's config. A
        model another case already used needs no reset: no solve reads
        what an earlier one left in its context.
        """
        if preop is None:
            preop = pipeline.prepare_preoperative(preop_mri, preop_labels)
        store = None
        if checkpoint_dir is not None:
            store = SessionStore.create(
                checkpoint_dir,
                pipeline.config,
                preop_mri,
                preop_labels,
                app=app,
                tracer=pipeline.tracer,
                metrics=pipeline.metrics,
            )
        return cls(pipeline=pipeline, preop=preop, store=store)

    @classmethod
    def resume(
        cls,
        pipeline: IntraoperativePipeline,
        checkpoint_dir,
    ) -> "SurgicalSession":
        """Recover a session from its checkpoint directory.

        The preoperative model is rebuilt deterministically from the
        checkpointed volumes (the heavyweight FEM state is recomputed,
        not deserialized), so the next :meth:`process` call takes the
        same cache-hit fast path an uninterrupted session would; the
        solve context's hit/miss counters continue from the last
        committed record's. Committed scans come back
        as ``restored=True`` history entries; interrupted scans (begun
        but never committed) are simply re-processed when their input is
        re-submitted. Journaled ``crash-after`` faults are marked fired
        on the pipeline's fault plan so they do not kill the process a
        second time.

        ``pipeline`` should be configured compatibly with the
        checkpoint — build its config with
        :func:`repro.persist.config_from_manifest` (the CLI does) to
        guarantee it. Raises :class:`~repro.util.ValidationError` when
        ``checkpoint_dir`` is missing, empty, or corrupted.
        """
        store = SessionStore.open(
            checkpoint_dir, tracer=pipeline.tracer, metrics=pipeline.metrics
        )
        preop_mri, preop_labels = store.load_preop()
        preop = pipeline.prepare_preoperative(preop_mri, preop_labels)
        history = store.load_history(preop)
        stats = next(
            (r.cache_stats for r in reversed(store.committed()) if r.cache_stats),
            None,
        )
        if preop.solve_context is not None and stats is not None:
            preop.solve_context.stats = CacheStats.from_dict(stats)
        store.attach_plan(pipeline.config.fault_plan)
        return cls(
            pipeline=pipeline,
            preop=preop,
            history=history,
            store=store,
            _prototypes=store.load_prototypes(),
        )

    @property
    def n_scans(self) -> int:
        return len(self.history)

    def _append(self, result: IntraoperativeResult) -> None:
        """Make ``result`` the latest scan; summarize the one it supersedes."""
        if self.history:
            scan = len(self.history) - 1
            before = self.history[scan - 1] if scan else None
            self.history[scan] = ScanSummary.of(scan, self.history[scan], before)
        self.history.append(result)

    def process(
        self,
        intraop_mri: ImageVolume,
        reference_labels: ImageVolume | None = None,
    ) -> IntraoperativeResult:
        """Register the preoperative model onto a new intraoperative scan.

        The first scan selects prototypes (simulating the clinician's
        interaction, optionally against ``reference_labels``); later
        scans re-use the recorded prototype locations automatically.

        Each scan is wrapped in a ``scan`` trace span (index attribute)
        so traced sessions nest scan → stage → solver internals.

        Durable sessions additionally journal the input write-ahead
        before processing and commit the result atomically after — a
        crash at any point leaves the checkpoint resumable at the last
        committed scan.
        """
        scan = self.n_scans
        if self.store is not None:
            self.store.journal_begin(scan, intraop_mri)
        tracer = (
            self.pipeline.tracer
            if self.pipeline.tracer is not None
            else get_tracer()
        )
        with tracer.span("scan", kind="session", index=scan):
            result = self.pipeline.process_scan(
                intraop_mri,
                self.preop,
                prototypes=self._prototypes,
                reference_labels=reference_labels,
                scan_index=scan,
                previous=self.history[-1] if self.history else None,
            )
        # Scan isolation: a degraded scan must not poison the session's
        # cross-scan state. Prototypes are only carried forward from
        # scans whose image stages actually ran (``result.prototypes``
        # is None when classification never completed).
        if result.prototypes is not None:
            self._prototypes = result.prototypes
        self._append(result)
        _note_scan_complete(result, scan)
        if self.store is not None:
            self.store.crash_point(scan, "solve")
            self.store.commit_scan(scan, result, prototypes=self._prototypes)
            self.store.crash_point(scan, "commit")
        return result

    def checkpoint(self, checkpoint_dir=None):
        """Persist the session's current state; returns the store's root.

        For a session begun without a checkpoint directory, pass one
        here to create the store post-hoc: every already-processed scan
        is committed from what the session holds of it — the latest from
        its full result, an older one from its summary, with the grid
        field re-derived from the nodal one and checked against the
        summary's digest. Post-hoc commits carry no journaled input
        volume (the scans were never written ahead), so they can be
        resumed and summarized but not replay-verified.

        For an already-durable session this re-commits anything
        uncommitted and refreshes the manifest — cheap, and idempotent.
        """
        if self.store is None:
            if checkpoint_dir is None:
                raise ValidationError(
                    "session has no checkpoint directory; pass checkpoint_dir="
                )
            self.store = SessionStore.create(
                checkpoint_dir,
                self.pipeline.config,
                self.preop.mri,
                self.preop.labels,
                tracer=self.pipeline.tracer,
                metrics=self.pipeline.metrics,
            )
        committed = {record.scan for record in self.store.committed()}
        for scan, result in enumerate(self.history):
            if scan in committed:
                continue
            grid = (
                result.grid_on(self.preop) if isinstance(result, ScanSummary) else None
            )
            self.store.journal_begin(scan, None)
            self.store.commit_scan(
                scan, result, prototypes=self._prototypes, grid=grid
            )
        self.store.sync_manifest()
        return self.store.root

    def invalidate_solve_context(self) -> None:
        """Drop the cached FEM state (e.g. after an intraoperative mesh edit).

        The next :meth:`process` call rebuilds the assembly/elimination/
        preconditioner state from scratch and repopulates the cache.
        """
        self.preop.invalidate_solve_context()

    def latest(self) -> IntraoperativeResult:
        if not self.history:
            raise ValidationError("no scans processed yet")
        return self.history[-1]

    def summary_table(self) -> str:
        """Per-scan summary of processing time, match quality and budget.

        When the pipeline ran with a :class:`repro.obs.BudgetMonitor`,
        the ``budget`` column records each scan's verdict (``ok`` or
        ``OVER(...)``); the solve-context cache hit *ratio* across the
        session is appended below the table. Scans recovered from a
        checkpoint show ``restored`` in the cache column.
        """
        if not self.history:
            return "(no scans processed)"
        scans = [ScanSummary.of(i, entry) for i, entry in enumerate(self.history)]
        rows = []
        for i, scan in enumerate(scans, start=1):
            record = scan.record
            if scan.restored:
                cache = "restored"
            elif record.cache_stats is None:
                cache = "off"
            else:
                cache = "hit" if record.cache_hit else "miss"
            verdict = scan.budget_verdict
            rows.append(
                [
                    i,
                    record.seconds(),
                    record.surface_umax,
                    record.match_rigid_rms,
                    record.match_simulated_rms,
                    record.solver_iterations,
                    cache,
                    "-" if record.degradation is None else record.degradation,
                    "-" if verdict is None else verdict.label,
                ]
            )
        table = format_table(
            [
                "scan",
                "processing (s)",
                "surface |u| max (mm)",
                "rigid RMS",
                "simulated RMS",
                "GMRES iters",
                "cache",
                "result",
                "budget",
            ],
            rows,
            title="Surgical session summary",
        )
        stats = next(
            (
                scan.record.cache_stats
                for scan in reversed(scans)
                if scan.record.cache_stats is not None
            ),
            None,
        )
        if stats is not None:
            stats = CacheStats.from_dict(stats)
            table += (
                f"\n  cache_hit_ratio: {stats.hit_ratio:.2f} "
                f"(hits={stats.hits} misses={stats.misses} "
                f"invalidations={stats.invalidations})"
            )
        return table


def _note_scan_complete(result: IntraoperativeResult, scan: int) -> None:
    """Flight-recorder breadcrumbs for one committed scan."""
    flight = get_flight_recorder()
    if not flight.enabled:
        return
    verdict = getattr(result, "budget_verdict", None)
    flight.note(
        "scan.complete",
        scan=scan,
        seconds=float(result.timeline.total("intraoperative")),
        degradation=(
            None if result.degradation is None else result.degradation.label
        ),
        within_budget=None if verdict is None else verdict.within_budget,
    )
    if result.degradation is not None and (
        result.degradation.degraded or result.degradation.escalated
    ):
        flight.note("scan.degraded", scan=scan, label=result.degradation.label)

