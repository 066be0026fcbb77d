"""The harness's own in-memory span recorder.

Spans are recorded from *outside* the program — around the calls the
harness makes into each layer, and rebuilt after the fact from the public
``Timeline`` entries and the ``CaseResult`` queue/service split. Nothing
is written until the run ends. Switching on ``repro.obs`` spans inside
the program is a later issue, to be checked against these numbers.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    scan: str | None  # the request's identifier, shared by its spans

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; ``enabled=False`` makes every call a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []

    def add(
        self, name: str, start: float, end: float,
        parent: int | None = None, scan: str | None = None,
    ) -> int | None:
        if not self.enabled:
            return None
        span = Span(len(self.spans), name, float(start), float(end), parent, scan)
        self.spans.append(span)
        return span.id

    @contextmanager
    def span(self, name: str, parent: int | None = None, scan: str | None = None):
        """Time the body; yields the span id (None when disabled)."""
        if not self.enabled:
            yield None
            return
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, scan)
        self.spans.append(span)
        try:
            yield span.id
        finally:
            span.end = time.perf_counter()

    def add_sequence(
        self, parent: int | None, start: float, parts, scan: str | None = None
    ) -> float:
        """Lay ``(name, seconds)`` parts end to end under ``parent``.

        Used to rebuild stage spans from a ``Timeline`` (which records
        durations in execution order, not clock readings). Returns the end
        of the last part.
        """
        t = start
        for name, seconds in parts:
            self.add(name, t, t + seconds, parent, scan)
            t += seconds
        return t


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus what its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so concurrent child spans are not subtracted twice.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = max(0.0, span.duration - covered)
    return out


def fold(spans: list[Span]) -> dict[str, dict]:
    """Per span name: count, total seconds and total self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.duration
        row["self_s"] += selfs[span.id]
    return table


def fold_error_share(spans: list[Span], is_unit) -> float:
    """How far child durations + self time miss their parents, as a share.

    Taken over the unit spans ``is_unit`` selects (one per scan or case)
    and their descendants. Zero when every rebuilt child fits inside its
    parent; positive when stage or queue/service durations reported by
    the program add up to more than the wall time the harness measured.
    """
    selfs = self_times(spans)
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    stack = [s for s in spans if is_unit(s)]
    total = sum(s.duration for s in stack)
    error = 0.0
    while stack:
        span = stack.pop()
        kids = children.get(span.id, [])
        if kids:
            error += abs(sum(k.duration for k in kids) + selfs[span.id] - span.duration)
            stack.extend(kids)
    return error / total if total else 0.0


def write_trace(path: Path, spans: list[Span], header: dict, ledger: dict) -> None:
    """One JSON object per line: header, every span, then the folded tables."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"type": "header", **header}) + "\n")
        for span in spans:
            fh.write(json.dumps({"type": "span", **asdict(span)}) + "\n")
        fh.write(json.dumps({"type": "fold", "by_name": fold(spans)}) + "\n")
        fh.write(json.dumps({"type": "ledger", "per_layer": ledger}) + "\n")
