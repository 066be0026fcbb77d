"""Durable sessions: checkpointing, crash recovery, deterministic replay.

A neurosurgical session is long-lived state on a machine that can fail:
the preoperative model, the prototype voxels recorded on the first
scan, the warm solve-context, and every committed scan's displacement
fields. This package makes that state durable:

* :mod:`repro.persist.atomic` — atomic rename-based writes and BLAKE2b
  content checksums (re-exported from :mod:`repro.util.atomicio`).
* :mod:`repro.persist.checkpoint` — versioned, checksummed npz payload
  containers, config round-tripping, :class:`ScanRecord` and the
  :class:`ScanSummary` a session keeps of a superseded scan.
* :mod:`repro.persist.journal` — the write-ahead scan journal
  (``begin`` → process → ``commit``; only commits count on recovery).
* :mod:`repro.persist.store` — :class:`SessionStore`, the checkpoint
  directory: create/open, the per-scan commit protocol, crash barriers,
  and restored-history reconstruction.
* :mod:`repro.persist.replay` — deterministic replay verification:
  re-run the journaled inputs, demand bit-exact displacement fields.

Entry points on :class:`repro.core.SurgicalSession`: pass
``checkpoint_dir`` to ``begin`` (or call ``checkpoint()`` post-hoc),
recover with ``SurgicalSession.resume``, verify with
:func:`replay_session` (CLI: ``repro replay``).
"""

from repro.persist.atomic import (
    atomic_payload,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    atomic_writer,
    checksum_array,
    checksum_bytes,
    checksum_file,
)
from repro.persist.checkpoint import (
    CHECKPOINT_VERSION,
    ScanRecord,
    ScanSummary,
    config_from_manifest,
    config_to_manifest,
    load_payload,
    save_payload,
)
from repro.persist.journal import ScanJournal
from repro.persist.store import CRASH_EXIT_CODE, SessionStore, completed_records

# Must come after store: replay imports SessionStore through the package.
from repro.persist.replay import ReplayReport, ScanReplay, replay_session

__all__ = [
    "CHECKPOINT_VERSION",
    "CRASH_EXIT_CODE",
    "ReplayReport",
    "ScanJournal",
    "ScanRecord",
    "ScanReplay",
    "ScanSummary",
    "SessionStore",
    "atomic_payload",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "atomic_writer",
    "checksum_array",
    "checksum_bytes",
    "checksum_file",
    "completed_records",
    "config_from_manifest",
    "config_to_manifest",
    "load_payload",
    "replay_session",
    "save_payload",
]
