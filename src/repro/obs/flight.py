"""Flight recorder: a bounded ring of recent telemetry for post-mortems.

An operating-room service cannot attach a debugger after the fact: when
a worker process dies mid-solve, a case blows its deadline, or the
degradation ladder fires, the question is always "what were the last
things that happened in there?". A :class:`FlightRecorder` answers it
the way an aircraft recorder does — a fixed-capacity ring buffer of the
most recent entries (scan completions, control-plane decisions, fault
and degradation notes) that any layer can append to for near-zero cost, and
that is **dumped atomically** to JSON (via
:func:`repro.util.atomicio.atomic_write_json`) the moment something goes
wrong.

The serving tier gives every worker its own recorder and persists the
ring after each scan, so even a SIGKILL'd worker leaves its final
pre-kill ring on disk; the server keeps one for control-plane decisions
(evictions, deaths, re-admissions) and dumps it alongside.

Like the tracer, the recorder is *ambient*: deep layers call
:func:`get_flight_recorder` instead of growing a parameter, and a
disabled shared default makes unrecorded runs pay one attribute check.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.util import ValidationError
from repro.util.atomicio import atomic_write_json

FLIGHT_FORMAT = "repro-flight"
FLIGHT_FORMAT_VERSION = 1

#: Default ring capacity: enough for several scans' worth of stage/solver
#: notes while keeping a dump a few tens of kilobytes.
DEFAULT_CAPACITY = 256


@dataclass
class FlightEntry:
    """One ring-buffer entry: a timestamped, categorized note."""

    ts: float
    kind: str
    attrs: dict

    def as_dict(self) -> dict:
        return {"ts": self.ts, "kind": self.kind, "attrs": self.attrs}


class FlightRecorder:
    """Fixed-capacity ring of recent :class:`FlightEntry` notes.

    Parameters
    ----------
    capacity:
        Maximum retained entries; older ones are evicted FIFO.
    enabled:
        A disabled recorder drops every note (the shared ambient
        default) — instrumented code never needs to branch.
    clock:
        Monotonic timestamp source (injectable for tests); defaults to
        :func:`time.perf_counter` — the tracer's clock, so flight
        entries and trace spans are directly comparable.
    label:
        Identity written into dumps (e.g. ``"worker-3"``).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        enabled: bool = True,
        clock=None,
        label: str = "repro",
    ):
        if capacity < 1:
            raise ValidationError(f"flight capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.enabled = enabled
        self.label = label
        self._clock = clock if clock is not None else time.perf_counter
        self._lock = threading.Lock()
        self._ring: deque[FlightEntry] = deque(maxlen=self.capacity)
        self.dropped = 0  # entries evicted by the ring bound

    def note(self, kind: str, **attrs) -> None:
        """Append one entry (no-op when disabled)."""
        if not self.enabled:
            return
        entry = FlightEntry(ts=float(self._clock()), kind=kind, attrs=attrs)
        with self._lock:
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(entry)

    def entries(self) -> list[FlightEntry]:
        """Snapshot of the ring, oldest first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self.dropped = 0

    def as_dicts(self) -> list[dict]:
        """The ring as plain dicts (dumps)."""
        return [entry.as_dict() for entry in self.entries()]

    # -- persistence ---------------------------------------------------------

    def dump(self, path, reason: str, context: dict | None = None) -> Path:
        """Atomically write the ring (plus header) to ``path``.

        The write uses the temp-file + fsync + rename dance, so a crash
        mid-dump leaves the previous dump or nothing — never a torn
        post-mortem. Safe to call repeatedly (the serving workers dump
        after every scan; the last complete dump survives a SIGKILL).
        """
        payload = {
            "format": FLIGHT_FORMAT,
            "version": FLIGHT_FORMAT_VERSION,
            "label": self.label,
            "pid": os.getpid(),
            "reason": reason,
            "wall_time": time.time(),
            "dropped": self.dropped,
            "context": context if context is not None else {},
            "entries": self.as_dicts(),
        }
        return atomic_write_json(path, payload)


def load_flight_dump(path) -> dict:
    """Read and validate a dump written by :meth:`FlightRecorder.dump`."""
    import json

    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if payload.get("format") != FLIGHT_FORMAT:
        raise ValidationError(
            f"{path}: not a flight-recorder dump (format={payload.get('format')!r})"
        )
    return payload


def render_flight_dump(payload: dict, last: int | None = None) -> str:
    """Human-readable rendering of a loaded dump (``repro obs flight``)."""
    entries = payload.get("entries", [])
    if last is not None:
        entries = entries[-last:]
    header = (
        f"flight recorder: {payload.get('label')} (pid {payload.get('pid')})"
        f" — reason: {payload.get('reason')}"
        f" — {len(entries)} entries"
        f" ({payload.get('dropped', 0)} older dropped)"
    )
    lines = [header, "-" * len(header)]
    for entry in entries:
        attrs = " ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in sorted(entry.get("attrs", {}).items())
        )
        lines.append(f"  {entry['ts']:12.4f}  {entry['kind']:<18} {attrs}")
    return "\n".join(lines)


#: Shared disabled recorder: the ambient default, one check per note.
DISABLED_FLIGHT = FlightRecorder(enabled=False)

_ambient_flight: FlightRecorder = DISABLED_FLIGHT
_ambient_flight_lock = threading.Lock()


def get_flight_recorder() -> FlightRecorder:
    """The ambient flight recorder (disabled no-op unless installed)."""
    return _ambient_flight


def set_flight_recorder(recorder: FlightRecorder | None) -> FlightRecorder:
    """Install the ambient recorder, returning the previous one.

    Passing ``None`` restores the disabled default.
    """
    global _ambient_flight
    with _ambient_flight_lock:
        previous = _ambient_flight
        _ambient_flight = recorder if recorder is not None else DISABLED_FLIGHT
    return previous


@contextmanager
def use_flight_recorder(recorder: FlightRecorder):
    """Scope the ambient flight recorder to a ``with`` block."""
    previous = set_flight_recorder(recorder)
    try:
        yield recorder
    finally:
        set_flight_recorder(previous)
