"""Deterministic replay: re-run a checkpointed session, verify checksums.

Every stage of the pipeline is deterministic given its inputs (seeded
rigid sampling, seeded prototype selection, fixed-iteration active
surface, preconditioned CG from zero).
A scan's field depends on the patient model, the prototype locations
fixed at scan 0, and that scan — plus, through the fault plan and the
degradation ladder's ``previous`` field, its index and its
predecessor. Re-running the session from scan 0 on the journaled
inputs must therefore reproduce every committed displacement
field **bit-exactly** — which is what :func:`replay_session` checks, by
comparing recomputed BLAKE2b array checksums against the journal.

A match certifies both directions: the checkpoint is an honest record
of what the OR saw, and the current code still computes what the
journal says it computed. A mismatch means corruption, library drift,
or a code change that altered numerics — all of which should fail loud
before anyone trusts a resumed session.

Process-killing ``crash-after`` faults recorded in the plan are
stripped before replaying (the crash already happened; replay verifies
the survivors). In-scan faults (``mesh-corrupt``, ``solver-stall``, …)
are kept: they are part of what produced the journaled fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.persist.checkpoint import config_from_manifest
from repro.persist.store import SessionStore
from repro.util import format_table


@dataclass
class ScanReplay:
    """Verification outcome of one journaled scan."""

    scan: int
    status: str  # "match" | "mismatch" | "skipped"
    detail: str = ""

    @property
    def matched(self) -> bool:
        return self.status == "match"


@dataclass
class ReplayReport:
    """Per-scan replay verdicts for one checkpoint directory."""

    checkpoint: str
    scans: list[ScanReplay] = field(default_factory=list)

    @property
    def matched(self) -> list[ScanReplay]:
        return [s for s in self.scans if s.status == "match"]

    @property
    def mismatched(self) -> list[ScanReplay]:
        return [s for s in self.scans if s.status == "mismatch"]

    @property
    def skipped(self) -> list[ScanReplay]:
        return [s for s in self.scans if s.status == "skipped"]

    @property
    def ok(self) -> bool:
        """True when no journaled scan contradicts its replay."""
        return not self.mismatched

    def render(self) -> str:
        rows = [[s.scan, s.status, s.detail] for s in self.scans]
        table = format_table(
            ["scan", "status", "detail"],
            rows,
            title=f"Replay verification: {self.checkpoint}",
        )
        verdict = "REPLAY OK" if self.ok else "REPLAY MISMATCH"
        return (
            f"{table}\n  {verdict}: {len(self.matched)} matched, "
            f"{len(self.mismatched)} mismatched, {len(self.skipped)} skipped"
        )


def replay_session(
    checkpoint_dir: str | Path,
    pipeline=None,
    config=None,
    tracer=None,
) -> ReplayReport:
    """Re-run a checkpointed session and verify the journaled checksums.

    The session is reconstructed entirely from the checkpoint: config
    from the manifest (unless ``config``/``pipeline`` override it — at
    the caller's numerical risk), preoperative volumes and per-scan
    inputs from the journaled payloads. Scans without a journaled input
    (post-hoc checkpoints) are reported ``skipped``, as is everything
    after them: scan indices key the fault plan, so a scan replayed
    after a gap would run under another scan's faults.
    """
    # Lazy imports: repro.core.session imports this package.
    from repro.core.pipeline import IntraoperativePipeline
    from repro.core.session import SurgicalSession

    store = SessionStore.open(checkpoint_dir, tracer=tracer)
    if pipeline is None:
        if config is None:
            config = config_from_manifest(store.manifest.get("config", {}))
        if config.fault_plan is not None:
            config.fault_plan = config.fault_plan.strip_process_faults()
        pipeline = IntraoperativePipeline(config=config, tracer=tracer)
    preop_mri, preop_labels = store.load_preop()
    session = SurgicalSession.begin(pipeline, preop_mri, preop_labels)

    report = ReplayReport(checkpoint=str(store.root))
    gap = False
    for record in store.committed():
        if record.input_file is None:
            report.scans.append(
                ScanReplay(
                    record.scan,
                    "skipped",
                    "no journaled input (post-hoc checkpoint)",
                )
            )
            gap = True
            continue
        if gap:
            report.scans.append(
                ScanReplay(record.scan, "skipped", "after an earlier skipped scan")
            )
            continue
        volume = store.load_input(record)
        result = session.process(volume)
        nodal_sha, grid_sha = result.field_shas()
        if nodal_sha == record.nodal_sha and grid_sha == record.grid_sha:
            report.scans.append(
                ScanReplay(record.scan, "match", f"nodal {nodal_sha}")
            )
        else:
            mismatches = []
            if nodal_sha != record.nodal_sha:
                mismatches.append(
                    f"nodal {nodal_sha} != journaled {record.nodal_sha}"
                )
            if grid_sha != record.grid_sha:
                mismatches.append(
                    f"grid {grid_sha} != journaled {record.grid_sha}"
                )
            report.scans.append(
                ScanReplay(record.scan, "mismatch", "; ".join(mismatches))
            )
    return report
