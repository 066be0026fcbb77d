"""Checkpoint payload formats: versioned, checksummed npz + JSON.

The on-disk vocabulary of the durable-session layer. Every binary
payload is a compressed ``.npz`` archive with a ``kind`` tag, a format
version, and a BLAKE2b content checksum; every payload is written
through :func:`repro.util.atomic_payload`, so a crash mid-write can
never leave a torn archive at a visible path. JSON metadata (the
manifest, the journal) lives next to the payloads and references them
by relative path + checksum.

This module also serializes :class:`repro.core.PipelineConfig` to a
JSON-safe dict and back, so a replayed session can be reconstructed
from the manifest alone, and defines :class:`ScanRecord` — the one
summary of a processed scan, which the journal commits, a session keeps
and a served reply carries — and :class:`ScanSummary`, the record plus
the nodal field that a session keeps in memory of every scan but its
latest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs.budget import ScanVerdict
from repro.resilience.policy import DegradationLevel
from repro.util import ValidationError
from repro.util.atomicio import atomic_payload, checksum_array

#: Version of the checkpoint directory layout (manifest + journal + payloads).
CHECKPOINT_VERSION = 1
#: Format tag of the manifest file.
MANIFEST_FORMAT = "repro-checkpoint"
#: Version of the individual npz payload containers.
PAYLOAD_VERSION = 1

#: PipelineConfig fields serialized verbatim (JSON scalars).
_CONFIG_SCALARS = (
    "rigid_levels",
    "rigid_max_iter",
    "rigid_samples",
    "localization_cap_mm",
    "knn_k",
    "prototypes_per_class",
    "mesh_cell_mm",
    "target_mesh_nodes",
    "surface_cap_mm",
    "surface_iterations",
    "surface_step",
    "surface_smoothing",
    "solver_tol",
    "gmres_restart",
    "n_ranks",
    "partitioner",
    "seed",
)
#: PipelineConfig fields serialized as integer lists.
_CONFIG_TUPLES = ("brain_labels", "intraop_brain_labels", "segmentation_classes")


# -- npz payload containers ---------------------------------------------------


def save_payload(
    path: str | Path, kind: str, known: dict[str, str] | None = None, **arrays
) -> dict[str, str]:
    """Atomically write a checksummed npz payload; returns field checksums.

    ``None``-valued arrays are skipped. The returned dict maps each
    stored field name to its :func:`repro.util.checksum_array` digest
    (callers record these in the journal/manifest); ``known`` gives the
    digests the caller already holds, so a field is hashed once.
    """
    path = Path(path)
    stored = {k: np.asarray(v) for k, v in arrays.items() if v is not None}
    known = known or {}
    checksums = {k: known.get(k) or checksum_array(v) for k, v in stored.items()}
    meta = {
        "kind": np.bytes_(kind.encode()),
        "format": np.int64(PAYLOAD_VERSION),
        "fields": np.array(sorted(stored), dtype=np.str_),
    }
    for name, digest in checksums.items():
        meta[f"checksum_{name}"] = np.bytes_(digest.encode())
    with atomic_payload(path, suffix=".npz") as tmp:
        np.savez_compressed(tmp, **meta, **stored)
    return checksums


def load_payload(path: str | Path, kind: str) -> dict[str, np.ndarray]:
    """Load and verify a payload written by :func:`save_payload`.

    Raises :class:`~repro.util.ValidationError` naming the file and the
    reason on a missing file, foreign/truncated archive, kind mismatch,
    newer format, or checksum mismatch.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"{path}: no such checkpoint payload")
    try:
        with np.load(path) as archive:
            if "kind" not in archive or bytes(archive["kind"]).decode() != kind:
                raise ValidationError(
                    f"{path}: not a repro {kind!r} payload"
                )
            version = int(archive["format"])
            if version > PAYLOAD_VERSION:
                raise ValidationError(
                    f"{path}: payload format {version} is newer than "
                    f"supported ({PAYLOAD_VERSION})"
                )
            fields = {}
            for name in archive["fields"].tolist():
                if name not in archive:
                    raise ValidationError(
                        f"{path}: missing field {name!r} (truncated archive)"
                    )
                value = archive[name]
                digest_key = f"checksum_{name}"
                if digest_key in archive:
                    stored = bytes(archive[digest_key]).decode()
                    recomputed = checksum_array(value)
                    if stored != recomputed:
                        raise ValidationError(
                            f"{path}: checksum mismatch on field {name!r} "
                            f"(stored {stored}, recomputed {recomputed}) "
                            "— file corrupted?"
                        )
                fields[name] = value
            return fields
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(
            f"{path}: cannot read {kind!r} payload "
            f"({type(exc).__name__}: {exc})"
        ) from exc


# -- config <-> manifest ------------------------------------------------------


def config_to_manifest(config) -> dict:
    """JSON-safe dict of everything needed to reconstruct the config."""
    out = {name: getattr(config, name) for name in _CONFIG_SCALARS}
    for name in _CONFIG_TUPLES:
        out[name] = [int(v) for v in getattr(config, name)]
    out["materials"] = repr(config.materials)
    policy = config.resilience
    out["resilience"] = {
        "enabled": bool(policy.enabled),
        "max_degradation": int(policy.max_degradation),
        "min_degradation": int(policy.min_degradation),
    }
    plan = config.fault_plan
    out["fault_plan"] = (
        None
        if plan is None
        else {
            "seed": plan.seed,
            "specs": [[s.scan, s.kind, s.param] for s in plan.specs],
        }
    )
    return out


def config_from_manifest(data: dict, base=None):
    """Rebuild a :class:`~repro.core.PipelineConfig` from manifest data.

    ``base`` supplies non-JSON-serializable pieces (the material map,
    resilience policy details); defaults are used when omitted. The
    recorded ``materials`` repr is compared against the rebuilt config's
    and a mismatch raises, because a replay under different materials
    cannot reproduce the journaled fields.
    """
    from repro.core.config import PipelineConfig
    from repro.resilience.faults import FaultPlan, FaultSpec
    from repro.resilience.policy import DegradationLevel

    config = base if base is not None else PipelineConfig()
    for name in _CONFIG_SCALARS:
        if name in data:
            setattr(config, name, data[name])
    for name in _CONFIG_TUPLES:
        if name in data:
            setattr(config, name, tuple(int(v) for v in data[name]))
    recorded = data.get("materials")
    if recorded is not None and recorded != repr(config.materials):
        raise ValidationError(
            "checkpoint was taken under a different material map "
            f"({recorded}); pass a matching config to resume/replay"
        )
    resilience = data.get("resilience") or {}
    if "enabled" in resilience:
        config.resilience.enabled = bool(resilience["enabled"])
    if "max_degradation" in resilience:
        config.resilience.max_degradation = DegradationLevel(
            int(resilience["max_degradation"])
        )
    if "min_degradation" in resilience:
        config.resilience.min_degradation = DegradationLevel(
            int(resilience["min_degradation"])
        )
    plan_data = data.get("fault_plan")
    if plan_data is not None:
        config.fault_plan = FaultPlan(
            [
                FaultSpec(scan=int(s[0]), kind=str(s[1]), param=s[2])
                for s in plan_data.get("specs", [])
            ],
            seed=int(plan_data.get("seed", 0)),
        )
    return config


# -- per-scan journal record --------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScanRecord:
    """The one summary of a processed intraoperative scan.

    Built once per scan (:attr:`repro.core.IntraoperativeResult.record`)
    and read by every consumer: the journal commits it (with the store's
    file fields), a session's summary table and superseded scans keep
    it, and a served :class:`~repro.serving.CaseResult` carries it. It is
    everything needed to (a) render the scan in a resumed summary table,
    (b) serve as ``previous`` for the degradation ladder, and (c) verify
    a deterministic replay — without the full result (deformed volumes
    are recomputed from the displacement field on demand).

    ``timeline`` holds one ``(stage, seconds, period, counts)`` per timed
    stage, ``counts`` being the named numbers the stage produced
    (:meth:`counts`); ``notes`` holds the scan's events only. The scan's
    budget verdict is a function of the timeline (:meth:`verdict`).
    ``restored`` is never journaled: a record read back from the journal
    (:meth:`from_dict`) is restored, one built from a result is not.
    Frozen, because every consumer shares the one record; slotted, so it
    pickles as its values (a served reply carries it).
    """

    scan: int
    result_file: str
    nodal_sha: str
    grid_sha: str
    input_file: str | None = None
    input_sha: str | None = None
    surface_umax: float = 0.0
    match_rigid_rms: float = float("nan")
    match_simulated_rms: float = float("nan")
    match_rigid_mi: float = float("nan")
    match_simulated_mi: float = float("nan")
    solver_iterations: int = 0
    solver_restarts: int = 0
    solver_converged: bool = True
    solver_residual: float = 0.0
    cache_hit: bool = False
    cache_stats: dict | None = None
    timeline: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    degradation: str | None = None
    prototypes_carried: bool = True
    restored: bool = False

    @classmethod
    def of(cls, result) -> "ScanRecord":
        """The record of a processed :class:`~repro.core.IntraoperativeResult`.

        Call it through ``result.record``, which builds it once. The
        three file fields are the store's (``SessionStore.commit_scan``
        adds them); a record that is not on disk has none.
        """
        sim = result.simulation
        nodal_sha, grid_sha = result.field_shas()
        return cls(
            scan=result.scan,
            result_file="",
            nodal_sha=nodal_sha,
            grid_sha=grid_sha,
            surface_umax=float(result.correspondence.magnitudes.max()),
            match_rigid_rms=float(result.match_rigid_rms),
            match_simulated_rms=float(result.match_simulated_rms),
            match_rigid_mi=float(result.match_rigid_mi),
            match_simulated_mi=float(result.match_simulated_mi),
            solver_iterations=int(sim.solver.iterations),
            solver_restarts=int(sim.solver.restarts),
            solver_converged=bool(sim.solver.converged),
            solver_residual=float(sim.solver.residual_norm),
            cache_hit=bool(sim.cache_hit),
            cache_stats=(
                None if sim.cache_stats is None else sim.cache_stats.as_dict()
            ),
            timeline=[(e.stage, e.seconds, e.period, e.counts) for e in result.timeline.entries],
            notes=list(result.timeline.notes),
            degradation=(
                None if result.degradation is None else result.degradation.label
            ),
            prototypes_carried=result.prototypes is not None,
        )

    def seconds(self, period: str = "intraoperative") -> float:
        """Total of the timeline's stages in ``period`` (Timeline.total)."""
        return sum(seconds for _, seconds, p, _ in self.timeline if p == period)

    def counts(self, stage: str) -> dict:
        """The named counts of the timeline's ``stage`` (empty if it did not run)."""
        return next((c for name, _, _, c in self.timeline if name == stage), {})

    def verdict(self) -> ScanVerdict:
        """The scan's budget verdict: :meth:`ScanVerdict.of` its timeline."""
        return ScanVerdict.of(
            ((stage, seconds) for stage, seconds, _, _ in self.timeline), self.scan
        )

    def as_dict(self) -> dict:
        return {
            "scan": self.scan,
            "result_file": self.result_file,
            "nodal_sha": self.nodal_sha,
            "grid_sha": self.grid_sha,
            "input_file": self.input_file,
            "input_sha": self.input_sha,
            "surface_umax": self.surface_umax,
            "match": [
                self.match_rigid_rms,
                self.match_simulated_rms,
                self.match_rigid_mi,
                self.match_simulated_mi,
            ],
            "solver": {
                "iterations": self.solver_iterations,
                "restarts": self.solver_restarts,
                "converged": self.solver_converged,
                "residual": self.solver_residual,
            },
            "cache": {
                "hit": self.cache_hit,
                "stats": self.cache_stats,
            },
            "timeline": [list(entry) for entry in self.timeline],
            "notes": list(self.notes),
            "degradation": self.degradation,
            "prototypes_carried": self.prototypes_carried,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScanRecord":
        match = data.get("match") or [float("nan")] * 4
        solver = data.get("solver") or {}
        cache = data.get("cache") or {}
        return cls(
            scan=int(data["scan"]),
            result_file=str(data["result_file"]),
            nodal_sha=str(data["nodal_sha"]),
            grid_sha=str(data["grid_sha"]),
            input_file=data.get("input_file"),
            input_sha=data.get("input_sha"),
            surface_umax=float(data.get("surface_umax", 0.0)),
            match_rigid_rms=float(match[0]),
            match_simulated_rms=float(match[1]),
            match_rigid_mi=float(match[2]),
            match_simulated_mi=float(match[3]),
            solver_iterations=int(solver.get("iterations", 0)),
            solver_restarts=int(solver.get("restarts", 0)),
            solver_converged=bool(solver.get("converged", True)),
            solver_residual=float(solver.get("residual", 0.0)),
            cache_hit=bool(cache.get("hit", False)),
            cache_stats=cache.get("stats"),
            timeline=[  # older journals wrote [stage, seconds, period]: no counts
                (*e[:3], dict(e[3]) if len(e) > 3 else {}) for e in data.get("timeline", [])
            ],
            notes=list(data.get("notes", [])),
            degradation=data.get("degradation"),
            prototypes_carried=bool(data.get("prototypes_carried", True)),
            restored=True,
        )


# -- what a session keeps of a superseded scan ----------------------------------


@dataclass
class ScanSummary:
    """A scan as a session holds it once a later scan is its ``previous``.

    Only the latest scan of a session is read as a whole (the degradation
    ladder re-applies its field); an older one is read for its record (a
    summary row, a served reply, a post-hoc checkpoint). This is that:
    the scan's :class:`ScanRecord` plus the nodal displacement, and the
    degradation report the record only carries a label of. The
    dense per-voxel arrays (deformed MRI, grid displacement,
    segmentation) are gone: the grid field is a function of the nodal one (:meth:`grid_on`) — also when a fallback
    re-applied the previous scan's pair of fields or delivered zeros —
    and is kept only for a coarse-FEM fallback, solved on another mesh.
    A scan restored from a checkpoint is the same type; its record is
    the journal's (``record.restored``).
    """

    record: ScanRecord
    nodal_displacement: np.ndarray
    degradation: object | None = None
    grid_displacement: np.ndarray | None = None

    @classmethod
    def of(cls, result, previous: "ScanSummary | None" = None):
        """Summarize a scan's full result.

        ``previous`` is the summary of the scan before it, which a
        previous-field fallback's grid is read from.
        """
        summary = cls(
            record=result.record,
            nodal_displacement=np.asarray(result.nodal_displacement, dtype=float),
            degradation=result.degradation,
        )
        summary.keep_grid(result.grid_displacement, previous)
        return summary

    def field_shas(self) -> tuple[str, str]:
        return self.record.nodal_sha, self.record.grid_sha

    def keep_grid(self, grid: np.ndarray, previous: "ScanSummary | None") -> None:
        """Keep the dense ``grid`` field only if :meth:`grid_on` could not give it back."""
        level = None if self.degradation is None else self.degradation.level
        if level is DegradationLevel.COARSE_FEM:
            self.grid_displacement = np.asarray(grid, dtype=float)
        elif level is DegradationLevel.PREVIOUS_FIELD:
            # The previous scan's pair of fields: whatever gives that
            # scan's grid back gives this one's (one array, shared).
            if previous is not None and previous.field_shas() == self.field_shas():
                self.grid_displacement = previous.grid_displacement
            else:
                self.grid_displacement = np.asarray(grid, dtype=float)

    def grid_on(self, preop) -> np.ndarray:
        """The dense grid displacement: kept, or re-derived and verified.

        ``preop`` is the session's :class:`~repro.core.PreoperativeModel`;
        interpolating the nodal field onto its grid is the deterministic
        step the pipeline's resample stage ran, so the digest must equal
        the recorded ``grid_sha``.
        """
        if self.grid_displacement is not None:
            return self.grid_displacement
        grid = preop.mesher.displacement_on_grid(self.nodal_displacement, preop.mri)
        actual = checksum_array(grid)
        if actual != self.record.grid_sha:
            raise ValidationError(
                f"scan {self.record.scan}: grid displacement re-derived from the "
                f"nodal field does not match its record "
                f"(stored {self.record.grid_sha}, actual {actual})"
            )
        return grid
