"""Deterministic fault injection for the intraoperative pipeline.

An operating-room system cannot be declared fault tolerant until every
failure path has been *executed*; the DDDAS follow-up work makes
injectable faults a first-class testing requirement for exactly this
pipeline. A :class:`FaultPlan` is a seeded, reproducible schedule of
faults keyed by intraoperative scan index:

* ``scan-nan`` / ``scan-spike`` / ``scan-motion`` — corrupt the newly
  acquired volume (NaN voxels, intensity spikes, motion-like stripe
  noise) before any processing sees it.
* ``kill-rank`` / ``stall-rank`` — kill a virtual compute rank during
  the distributed solve (raises :class:`repro.util.RankFailure`) or
  charge it a stall of extra virtual seconds.
* ``stagnate-solver`` — force Krylov stagnation by clamping the
  iteration budget (and failing the direct rung), driving the solve
  through the full escalation ladder into graceful degradation.
* ``crash-after`` — kill the whole process (``os._exit``) at a named
  persistence barrier of the scan (``begin``, ``solve``, ``commit``,
  ``mid-write``), proving the durable-session layer's torn-state
  immunity: a checkpoint directory must be consistently resumable no
  matter where the crash lands. Fired crashes are journaled first, so
  a resumed session does not re-fire them.

Plans parse from compact CLI strings (``--faults "1:stagnate-solver;
1:kill-rank=2;2:scan-nan=0.4"``), are installed on
:class:`repro.core.PipelineConfig`, and record every fault they actually
trigger so tests and benchmarks can assert the injection happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.imaging.volume import ImageVolume
from repro.util import ValidationError, default_rng

#: Fault kinds that corrupt the intraoperative acquisition.
SCAN_FAULTS = ("scan-nan", "scan-spike", "scan-motion")
#: Fault kinds aimed at the distributed solve.
SOLVER_FAULTS = ("kill-rank", "stall-rank", "stagnate-solver")
#: Fault kinds that kill the whole process (durable-session drills).
PROCESS_FAULTS = ("crash-after",)
FAULT_KINDS = SCAN_FAULTS + SOLVER_FAULTS + PROCESS_FAULTS

#: Kinds consumed on first trigger (the fault is transient: the retry
#: after recovery does not hit it again).
ONE_SHOT_KINDS = frozenset({"kill-rank", "stall-rank", "crash-after"})

#: Persistence barriers a ``crash-after`` fault can target, in scan
#: order: after the write-ahead ``begin`` record, after the solve (all
#: processing done, commit record not yet durable), after the ``commit``
#: record, and in the middle of an atomic manifest write (temp file
#: written, ``os.replace`` not yet issued).
CRASH_STAGES = ("begin", "solve", "commit", "mid-write")


@dataclass
class FaultSpec:
    """One scheduled fault.

    Attributes
    ----------
    scan:
        0-based intraoperative scan index the fault fires on.
    kind:
        One of :data:`FAULT_KINDS`.
    param:
        Kind-specific parameter: corrupted-voxel fraction for scan
        faults, rank index for ``kill-rank``/``stall-rank``, iteration
        clamp for ``stagnate-solver``, persistence stage name (one of
        :data:`CRASH_STAGES`) for ``crash-after``. ``None`` uses the
        kind's default.
    """

    scan: int
    kind: str
    param: float | str | None = None
    triggered: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValidationError(
                f"unknown fault kind {self.kind!r}; options: {sorted(FAULT_KINDS)}"
            )
        if self.scan < 0:
            raise ValidationError(f"fault scan index must be >= 0, got {self.scan}")
        if self.kind == "crash-after":
            if self.param is not None and self.param not in CRASH_STAGES:
                raise ValidationError(
                    f"crash-after stage must be one of {sorted(CRASH_STAGES)}, "
                    f"got {self.param!r}"
                )
        elif isinstance(self.param, str):
            raise ValidationError(
                f"fault kind {self.kind!r} takes a numeric parameter, "
                f"got {self.param!r}"
            )

    @property
    def one_shot(self) -> bool:
        return self.kind in ONE_SHOT_KINDS

    @property
    def crash_stage(self) -> str:
        """Persistence barrier a ``crash-after`` fault fires at."""
        return str(self.param) if self.param is not None else "solve"

    def describe(self) -> str:
        if self.param is None:
            tail = ""
        elif isinstance(self.param, str):
            tail = f"={self.param}"
        else:
            tail = f"={self.param:g}"
        return f"scan {self.scan}: {self.kind}{tail}"


class FaultPlan:
    """A seeded, reproducible schedule of :class:`FaultSpec` entries.

    The plan is *deterministic*: the same specs and seed always corrupt
    the same voxels, so failure-path tests are exact, not flaky.
    """

    def __init__(self, specs: list[FaultSpec] | None = None, seed: int = 0):
        self.specs: list[FaultSpec] = list(specs or [])
        self.seed = int(seed)
        self.log: list[str] = []

    def __len__(self) -> int:
        return len(self.specs)

    def add(self, scan: int, kind: str, param: float | None = None) -> "FaultPlan":
        """Append one fault; returns ``self`` for chaining."""
        self.specs.append(FaultSpec(scan=scan, kind=kind, param=param))
        return self

    # -- querying -----------------------------------------------------------

    def for_scan(self, scan: int) -> list[FaultSpec]:
        """Every fault scheduled for ``scan`` (triggered or not)."""
        return [s for s in self.specs if s.scan == scan]

    def peek(self, scan: int, kind: str) -> FaultSpec | None:
        """The active (untriggered or persistent) fault of this kind."""
        for spec in self.specs:
            if spec.scan == scan and spec.kind == kind:
                if spec.one_shot and spec.triggered:
                    continue
                return spec
        return None

    def take(self, scan: int, kind: str) -> FaultSpec | None:
        """Like :meth:`peek`, but marks the fault as triggered.

        One-shot kinds will not fire again; persistent kinds keep
        firing for the scan but still record the trigger.
        """
        spec = self.peek(scan, kind)
        if spec is not None:
            spec.triggered = True
            self.log.append(spec.describe())
        return spec

    @property
    def triggered(self) -> list[FaultSpec]:
        return [s for s in self.specs if s.triggered]

    def crash_spec(self, scan: int, stage: str) -> FaultSpec | None:
        """The live ``crash-after`` fault for this scan + barrier, if any."""
        for spec in self.specs:
            if (
                spec.kind == "crash-after"
                and spec.scan == scan
                and not spec.triggered
                and spec.crash_stage == stage
            ):
                return spec
        return None

    def mark_crashed(self, scan: int, stage: str) -> None:
        """Mark a journaled crash as already fired (resume bookkeeping).

        A resumed session re-installs the original fault plan; crashes
        the previous process already executed must not fire again when
        the interrupted scan is re-processed.
        """
        for spec in self.specs:
            if (
                spec.kind == "crash-after"
                and spec.scan == scan
                and spec.crash_stage == stage
            ):
                spec.triggered = True

    def strip_process_faults(self) -> "FaultPlan":
        """A copy without process-killing faults (for deterministic replay)."""
        keep = [
            FaultSpec(scan=s.scan, kind=s.kind, param=s.param)
            for s in self.specs
            if s.kind not in PROCESS_FAULTS
        ]
        return FaultPlan(keep, seed=self.seed)

    # -- scan corruption ----------------------------------------------------

    def _rng(self, scan: int) -> np.random.Generator:
        return default_rng(self.seed * 10007 + scan)

    def corrupt_volume(self, volume: ImageVolume, scan: int) -> ImageVolume:
        """Apply every scheduled scan-corruption fault for ``scan``.

        Returns the (possibly unchanged) volume; corruption operates on
        a copy, never on the caller's data.
        """
        out = volume
        for kind in SCAN_FAULTS:
            spec = self.take(scan, kind)
            if spec is None:
                continue
            rng = self._rng(scan)
            data = np.asarray(out.data, dtype=float).copy()
            n = data.size
            if kind == "scan-nan":
                fraction = 0.05 if spec.param is None else float(spec.param)
                k = max(1, int(round(fraction * n)))
                idx = rng.choice(n, size=min(k, n), replace=False)
                data.ravel()[idx] = np.nan
            elif kind == "scan-spike":
                fraction = 0.01 if spec.param is None else float(spec.param)
                k = max(1, int(round(fraction * n)))
                idx = rng.choice(n, size=min(k, n), replace=False)
                peak = float(np.nanmax(np.abs(data))) or 1.0
                data.ravel()[idx] = peak * 50.0 * rng.choice([-1.0, 1.0], size=len(idx))
            else:  # scan-motion: periodic stripe ghosting along one axis
                amplitude = (0.3 if spec.param is None else float(spec.param)) * (
                    float(np.nanstd(data)) or 1.0
                )
                phase = rng.uniform(0.0, 2 * np.pi)
                stripes = amplitude * np.sin(
                    np.arange(data.shape[1]) * (2 * np.pi / 4.0) + phase
                )
                data += stripes[None, :, None]
            out = ImageVolume(data, out.spacing, out.origin)
        return out

    # -- parsing ------------------------------------------------------------

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``"SCAN:KIND[=PARAM];..."`` (e.g. ``"1:kill-rank=2"``).

        Entries are separated by ``;`` or ``,``; whitespace is ignored.
        A malformed entry or unknown kind raises
        :class:`repro.util.ValidationError` naming the offending chunk,
        the expected grammar, and every valid fault kind.
        """
        valid = f"valid kinds: {', '.join(FAULT_KINDS)}"
        specs: list[FaultSpec] = []
        for chunk in text.replace(",", ";").split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                scan_part, kind_part = chunk.split(":", 1)
                if "=" in kind_part:
                    kind, param_part = kind_part.split("=", 1)
                    param: float | str | None
                    if kind.strip() == "crash-after":
                        param = param_part.strip()
                    else:
                        param = float(param_part)
                else:
                    kind, param = kind_part, None
                specs.append(
                    FaultSpec(scan=int(scan_part), kind=kind.strip(), param=param)
                )
            except ValidationError as exc:
                raise ValidationError(
                    f"bad fault entry {chunk!r}: {exc} ({valid})"
                ) from exc
            except (ValueError, TypeError) as exc:
                raise ValidationError(
                    f"cannot parse fault entry {chunk!r} "
                    f"(expected SCAN:KIND or SCAN:KIND=PARAM; {valid})"
                ) from exc
        return cls(specs, seed=seed)

    def describe(self) -> str:
        if not self.specs:
            return "(empty fault plan)"
        return "; ".join(s.describe() for s in self.specs)


# -- serving-tier faults ------------------------------------------------------

#: Fault kinds aimed at the sharded serving tier (gateway-level chaos).
#: These target infrastructure — shards and workers — rather than the
#: pipeline's numerics, and are scheduled by *dispatch ordinal*: the
#: running count of cases the gateway has handed to shards, which is
#: deterministic for a fixed workload regardless of wall-clock timing.
SERVING_FAULTS = ("kill-shard", "hang-worker", "slow-shard", "drop-result")

#: Fault kinds aimed at the network transport (wire-level chaos). These
#: are consumed by :class:`repro.serving.transport.NetworkFrontEnd`
#: rather than the gateway, and are scheduled by *submit ordinal*: the
#: running count of SUBMIT frames the front-end has decoded, which is
#: deterministic for a fixed client workload.
#:
#: * ``reset-mid-frame`` — the connection carrying the next outbound
#:   result is aborted halfway through the frame (torn write). The
#:   client must reject the partial frame and retry the case.
#: * ``truncate-frame`` — the next outbound result frame advertises more
#:   payload than is sent, then the connection closes cleanly. The
#:   client's length-prefixed reader must treat the short read as a
#:   truncated frame, never as a (checksum-less) success.
#: * ``delay-ack`` — the admission ACK for the target submit is delayed
#:   by ``param`` seconds (default 0.5), pressuring client timeouts.
#: * ``dup-deliver`` — the decoded SUBMIT is delivered to the gateway
#:   twice (as if a retry raced the original); the journal-gated dedup
#:   layer must collapse the copies so the case is solved once.
#: * ``partition`` — the listener drops every connection without reply
#:   for ``param`` seconds (default 1.0), then heals. Clients see
#:   connect resets, trip their breaker, and must recover after heal.
WIRE_FAULTS = (
    "reset-mid-frame",
    "truncate-frame",
    "delay-ack",
    "dup-deliver",
    "partition",
)

#: Everything a :class:`ServingFaultPlan` accepts (gateway + wire).
SERVING_FAULT_KINDS = SERVING_FAULTS + WIRE_FAULTS


@dataclass
class ServingFaultSpec:
    """One scheduled serving-tier fault.

    Attributes
    ----------
    at:
        Dispatch ordinal the fault becomes due at: it fires on the first
        gateway maintenance pass after ``at`` cases have been dispatched.
    kind:
        One of :data:`SERVING_FAULTS`:

        * ``kill-shard`` — SIGKILL every worker of the target shard and
          mark it dead (host loss). The gateway must fail the shard over:
          remap its ring keys and re-admit its in-flight + assigned cases.
        * ``hang-worker`` — wedge one live worker of the target shard
          (alive but unresponsive: it stops heartbeating and never
          returns its case). Detectable only via heartbeat timeout.
        * ``slow-shard`` — inject ``param`` seconds of per-case delay
          into the target shard's workers (degraded host), pressuring
          the shedding ladder without any crash.
        * ``drop-result`` — the next completed case result from the
          target shard is swallowed in transit (lost reply), exercising
          the re-admission path without killing anything.
    shard:
        Target shard index (gateway kinds). Wire kinds ignore it.
    param:
        Kind-specific: seconds of delay for ``slow-shard`` (default 0.2)
        and ``delay-ack`` (default 0.5), partition duration in seconds
        for ``partition`` (default 1.0); unused otherwise.
    """

    at: int
    kind: str
    shard: int = 0
    param: float | None = None
    triggered: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in SERVING_FAULT_KINDS:
            raise ValidationError(
                f"unknown serving fault kind {self.kind!r}; "
                f"gateway kinds: {sorted(SERVING_FAULTS)}, "
                f"wire kinds: {sorted(WIRE_FAULTS)}"
            )
        if self.at < 0:
            raise ValidationError(f"fault ordinal must be >= 0, got {self.at}")
        if self.shard < 0:
            raise ValidationError(f"fault shard must be >= 0, got {self.shard}")

    @property
    def delay_s(self) -> float:
        """Delay parameter: ``slow-shard`` per-case seconds (default
        0.2), ``delay-ack`` ACK hold (default 0.5), ``partition``
        outage duration (default 1.0)."""
        if self.param is not None:
            return float(self.param)
        if self.kind == "partition":
            return 1.0
        if self.kind == "delay-ack":
            return 0.5
        return 0.2

    def describe(self) -> str:
        tail = "" if self.param is None else f"@{self.param:g}"
        if self.kind in WIRE_FAULTS:  # no shard target; submit-keyed
            return f"submit {self.at}: {self.kind}{tail}"
        return f"dispatch {self.at}: {self.kind}=shard{self.shard}{tail}"


class ServingFaultPlan:
    """A deterministic schedule of :class:`ServingFaultSpec` entries.

    The gateway polls :meth:`due` from its control loop; each spec fires
    exactly once, and fired specs are logged so soak benchmarks can
    assert the chaos actually happened.
    """

    def __init__(self, specs: list[ServingFaultSpec] | None = None):
        self.specs: list[ServingFaultSpec] = list(specs or [])
        self.log: list[str] = []

    def __len__(self) -> int:
        return len(self.specs)

    def add(
        self, at: int, kind: str, shard: int = 0, param: float | None = None
    ) -> "ServingFaultPlan":
        """Append one fault; returns ``self`` for chaining."""
        self.specs.append(ServingFaultSpec(at=at, kind=kind, shard=shard, param=param))
        return self

    def due(
        self, dispatched: int, kinds: tuple[str, ...] | None = None
    ) -> list[ServingFaultSpec]:
        """Untriggered specs whose ordinal has been reached, marked fired.

        ``kinds`` restricts the poll to a kind family, so a plan mixing
        gateway chaos and wire chaos can be shared between the gateway
        (which polls :data:`SERVING_FAULTS` by dispatch ordinal) and the
        network front-end (which polls :data:`WIRE_FAULTS` by submit
        ordinal) without either consuming the other's specs.
        """
        out = []
        for spec in self.specs:
            if kinds is not None and spec.kind not in kinds:
                continue
            if not spec.triggered and spec.at <= dispatched:
                spec.triggered = True
                self.log.append(spec.describe())
                out.append(spec)
        return out

    @property
    def triggered(self) -> list[ServingFaultSpec]:
        return [s for s in self.specs if s.triggered]

    @classmethod
    def parse(cls, text: str) -> "ServingFaultPlan":
        """Parse ``"AT:KIND=SHARD[@PARAM];..."`` (e.g. ``"2:kill-shard=1"``,
        ``"0:slow-shard=0@0.25"``, ``"3:partition@0.5"``). Entries split
        on ``;`` or ``,``. A malformed entry or unknown kind raises
        :class:`repro.util.ValidationError` naming the offending chunk,
        the expected grammar, and every valid fault kind.
        """
        valid = (
            f"valid gateway kinds: {', '.join(SERVING_FAULTS)}; "
            f"valid wire kinds: {', '.join(WIRE_FAULTS)}"
        )
        specs: list[ServingFaultSpec] = []
        for chunk in text.replace(",", ";").split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                at_part, kind_part = chunk.split(":", 1)
                param: float | None = None
                shard = 0
                if "=" in kind_part:
                    kind, target = kind_part.split("=", 1)
                    if "@" in target:
                        shard_part, param_part = target.split("@", 1)
                        shard = int(shard_part)
                        param = float(param_part)
                    else:
                        shard = int(target)
                elif "@" in kind_part:
                    # Shard-less wire kinds still take a parameter:
                    # "3:partition@0.5".
                    kind, param_part = kind_part.split("@", 1)
                    param = float(param_part)
                else:
                    kind = kind_part
                specs.append(
                    ServingFaultSpec(
                        at=int(at_part), kind=kind.strip(), shard=shard, param=param
                    )
                )
            except ValidationError as exc:
                raise ValidationError(
                    f"bad serving fault entry {chunk!r}: {exc} ({valid})"
                ) from exc
            except (ValueError, TypeError) as exc:
                raise ValidationError(
                    f"cannot parse serving fault entry {chunk!r} "
                    "(expected AT:KIND, AT:KIND@PARAM, AT:KIND=SHARD or "
                    f"AT:KIND=SHARD@PARAM; {valid})"
                ) from exc
        return cls(specs)

    def describe(self) -> str:
        if not self.specs:
            return "(empty serving fault plan)"
        return "; ".join(s.describe() for s in self.specs)
