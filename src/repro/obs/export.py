"""Trace exporters: JSONL event log, Chrome ``trace_event``, text report.

Three consumers of the same :class:`~repro.obs.trace.SpanRecord` tree:

* **JSONL** — one self-describing JSON object per line (a ``meta``
  header, then one ``span`` object per finished span). Greppable,
  append-friendly, and the interchange format of the ``repro
  trace-report`` CLI subcommand.
* **Chrome trace_event JSON** — the ``{"traceEvents": [...]}`` format
  understood by ``about:tracing`` and Perfetto (complete ``"X"`` events,
  microsecond timestamps). Span attributes become ``args``. Spans carry
  their originating OS pid, so a server trace with grafted worker spans
  renders as one process lane per worker, each titled from the tracer's
  ``process_labels``.
* **Text perf report** — renders the span tree with *total* and *self*
  (total minus direct children) times, the classic profiler view, plus
  a percentile footer for span names that repeat (p50/p95/p99 across
  occurrences — the serving tier runs the same stages hundreds of
  times).

Metrics leave through :func:`prometheus_text`, the Prometheus text
exposition format (``# TYPE`` headers, ``{label="value"}`` selectors for
the registry's ``name[k=v]`` instruments), so a scrape endpoint or a
file-based textfile collector can ingest a serving run unchanged.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.obs.trace import SpanRecord, Tracer, span_from_dict
from repro.util import ValidationError
from repro.util.atomicio import atomic_write_text, atomic_writer

FORMAT_VERSION = 1


def _spans_of(source) -> list[SpanRecord]:
    """Accept a Tracer or an iterable of SpanRecords; drop open spans."""
    if isinstance(source, Tracer):
        return source.finished()
    return [s for s in source if s.end is not None]


# -- JSONL -------------------------------------------------------------------


def write_jsonl(source, path) -> Path:
    """Write the trace as JSON Lines; returns the path written.

    The write is atomic (temp file + fsync + ``os.replace`` via
    :func:`repro.util.atomic_writer`): a crash mid-export leaves either
    the previous report or no file, never a half-written trace.
    """
    spans = _spans_of(source)
    path = Path(path)
    with atomic_writer(path) as fh:
        meta = {
            "type": "meta",
            "format": "repro-trace",
            "version": FORMAT_VERSION,
            "clock": "perf_counter",
            "n_spans": len(spans),
        }
        fh.write(json.dumps(meta) + "\n")
        for span in spans:
            fh.write(json.dumps(span.as_dict()) + "\n")
    return path


def read_jsonl(path) -> list[SpanRecord]:
    """Load spans from a JSONL trace written by :func:`write_jsonl`."""
    spans: list[SpanRecord] = []
    with Path(path).open() as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"{path}:{line_no}: not valid JSON ({exc})"
                ) from exc
            kind = obj.get("type")
            if kind == "meta":
                if obj.get("format") != "repro-trace":
                    raise ValidationError(
                        f"{path}: not a repro trace (format={obj.get('format')!r})"
                    )
                continue
            if kind != "span":
                continue
            spans.append(span_from_dict(obj))
    return spans


# -- Chrome trace_event ------------------------------------------------------


def chrome_trace(
    source,
    process_name: str = "repro",
    process_labels: dict[int, str] | None = None,
) -> dict:
    """The trace as a Chrome ``trace_event`` JSON object.

    Uses complete (``"ph": "X"``) events with microsecond timestamps
    relative to the earliest span — loadable in ``about:tracing`` and
    Perfetto. Span events are emitted as instant (``"ph": "i"``) events.

    Each span lands in the process lane of its recorded OS ``pid``
    (legacy ``pid=0`` spans fall back to a single default lane), with
    one ``tid`` per thread name within that lane. Lane titles come from
    ``process_labels`` (pid -> name); when ``source`` is a
    :class:`~repro.obs.trace.Tracer` its accumulated
    :attr:`~repro.obs.trace.Tracer.process_labels` — which include every
    grafted worker — are used automatically. Unlabelled pids are titled
    ``"{process_name} (pid N)"``.
    """
    labels = dict(process_labels) if process_labels else {}
    if isinstance(source, Tracer):
        for pid, label in source.process_labels.items():
            labels.setdefault(pid, label)
    spans = _spans_of(source)
    origin = min((s.start for s in spans), default=0.0)
    default_pid = next(iter(labels), 1)
    pids = sorted({span.pid or default_pid for span in spans}) or [default_pid]
    events: list[dict] = []
    for pid in pids:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": labels.get(pid, f"{process_name} (pid {pid})")},
            }
        )
    tids: dict[tuple[int, str], int] = {}
    for span in spans:
        pid = span.pid or default_pid
        tid = tids.setdefault((pid, span.thread), len(tids) + 1)
        args = {k: _jsonable(v) for k, v in span.attrs.items()}
        events.append(
            {
                "name": span.name,
                "cat": str(span.attrs.get("kind", "span")),
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        for ts, name, attrs in span.events:
            events.append(
                {
                    "name": name,
                    "cat": "event",
                    "ph": "i",
                    "ts": (ts - origin) * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "s": "t",
                    "args": {k: _jsonable(v) for k, v in attrs.items()},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    source,
    path,
    process_name: str = "repro",
    process_labels: dict[int, str] | None = None,
) -> Path:
    """Write :func:`chrome_trace` output to ``path``; returns the path.

    Crash-safe like :func:`write_jsonl`: the JSON appears atomically.
    """
    return atomic_write_text(
        path, json.dumps(chrome_trace(source, process_name, process_labels))
    )


# -- Prometheus text exposition ----------------------------------------------


def _prom_name(name: str) -> str:
    """A metric name sanitized to the Prometheus grammar."""
    out = []
    for i, ch in enumerate(name):
        if ch.isalnum() and (i > 0 or not ch.isdigit()):
            out.append(ch)
        elif ch == ":":
            out.append(ch)
        else:
            out.append("_")
    return "".join(out) or "_"


def _prom_split(name: str) -> tuple[str, str]:
    """Split ``name[k=v,k2=v2]`` into a sanitized name + label selector."""
    base, labels = name, ""
    if name.endswith("]") and "[" in name:
        base, _, rest = name.partition("[")
        pairs = []
        for item in rest[:-1].split(","):
            key, _, value = item.partition("=")
            value = value.replace("\\", "\\\\").replace('"', '\\"')
            pairs.append(f'{_prom_name(key.strip())}="{value.strip()}"')
        labels = "{" + ",".join(pairs) + "}"
    return _prom_name(base), labels


def prometheus_text(registry) -> str:
    """Render a :class:`~repro.obs.MetricsRegistry` as Prometheus text.

    The standard text exposition format: ``# TYPE`` headers, one sample
    per line. Dotted names become underscored; ``name[k=v]`` instruments
    (the per-worker gauges produced by
    :meth:`~repro.obs.MetricsRegistry.merge`) become label selectors.
    Histograms export as ``summary`` metrics with exact p50/p95/p99
    quantile lines plus ``_sum``/``_count``.
    """
    snapshot = registry.snapshot()
    lines: list[str] = []
    for name in sorted(snapshot["counters"]):
        prom, labels = _prom_split(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom}{labels} {snapshot['counters'][name]:g}")
    for name in sorted(snapshot["gauges"]):
        prom, labels = _prom_split(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom}{labels} {snapshot['gauges'][name]:g}")
    for name in sorted(snapshot["histograms"]):
        hist = registry.get(name)
        stats = hist.summary()
        prom, labels = _prom_split(name)
        inner = labels[1:-1] if labels else ""
        lines.append(f"# TYPE {prom} summary")
        for key, value in stats.items():
            if key.startswith("p") and key[1:].isdigit():
                q = int(key[1:]) / 100.0
                sel = ",".join(filter(None, [inner, f'quantile="{q:g}"']))
                lines.append(f"{prom}{{{sel}}} {value:g}")
        lines.append(f"{prom}_sum{labels} {stats['sum']:g}")
        lines.append(f"{prom}_count{labels} {stats['count']}")
    return "\n".join(lines) + "\n"


def write_prometheus(registry, path) -> Path:
    """Atomically write :func:`prometheus_text` to ``path``.

    Atomicity matters here: the node-exporter *textfile collector*
    pattern re-reads the file on every scrape, and a torn write would
    surface as a parse failure mid-run.
    """
    return atomic_write_text(path, prometheus_text(registry))


def _jsonable(value):
    """Coerce attribute values to JSON-safe scalars."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


# -- text perf report --------------------------------------------------------


def render_report(source, title: str | None = None, min_seconds: float = 0.0) -> str:
    """Render the span tree with total and self times.

    ``self`` is a span's duration minus its direct children — the time
    spent in the span's own code, the number a flat stage table cannot
    show. Spans shorter than ``min_seconds`` are pruned (with their
    subtrees) to keep reports of chatty traces readable.

    Span names that occur more than once (the serving tier records the
    same stages per case) get a footer with per-name count and exact
    p50/p95/p99 durations.
    """
    spans = _spans_of(source)
    if not spans:
        return "(empty trace)"
    children: dict[int | None, list[SpanRecord]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.start)
    known = {s.span_id for s in spans}
    # Roots: no parent, or parent missing from this trace (partial load).
    roots = [
        s for s in spans if s.parent_id is None or s.parent_id not in known
    ]
    roots.sort(key=lambda s: s.start)

    lines: list[str] = []
    if title:
        lines.append(title)
    name_width = max(
        (len("  " * _depth(s, spans)) + len(s.name) for s in spans),
        default=20,
    )
    name_width = max(name_width, len("span"))
    lines.append(f"{'span'.ljust(name_width)}   total (s)    self (s)  detail")
    lines.append("-" * (name_width + 40))

    def walk(span: SpanRecord, depth: int) -> None:
        if span.duration < min_seconds:
            return
        kids = children.get(span.span_id, [])
        self_s = span.duration - sum(k.duration for k in kids)
        label = ("  " * depth + span.name).ljust(name_width)
        detail = _detail(span)
        lines.append(
            f"{label}  {span.duration:10.4f}  {max(self_s, 0.0):10.4f}  {detail}"
        )
        for kid in kids:
            walk(kid, depth + 1)

    for root in roots:
        walk(root, 0)

    durations: dict[str, list[float]] = {}
    for span in spans:
        durations.setdefault(span.name, []).append(span.duration)
    repeated = {name: vals for name, vals in durations.items() if len(vals) > 1}
    if repeated:
        lines.append("")
        lines.append("repeated spans (percentiles across occurrences):")
        width = max(len(name) for name in repeated)
        for name in sorted(repeated, key=lambda n: -sum(repeated[n])):
            vals = repeated[name]
            lines.append(
                f"  {name.ljust(width)}  n={len(vals):<4d}"
                f"  p50={_quantile(vals, 0.5):.4f}"
                f"  p95={_quantile(vals, 0.95):.4f}"
                f"  p99={_quantile(vals, 0.99):.4f}"
            )
    return "\n".join(lines)


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def _depth(span: SpanRecord, spans: list[SpanRecord]) -> int:
    by_id = {s.span_id: s for s in spans}
    depth = 0
    current = span
    while current.parent_id is not None and current.parent_id in by_id:
        current = by_id[current.parent_id]
        depth += 1
        if depth > 64:  # defensive: malformed trace with a parent cycle
            break
    return depth


def iterations_per_decade(iterations: int, history) -> float | None:
    """Krylov iterations per factor of ten the residual fell by.

    ``history`` is a solve's residual curve (``KrylovResult.history``);
    ``None`` when it fell by nothing (no iterations, a zero residual).
    """
    if iterations < 1 or len(history) < 2 or not history[0] > history[-1] > 0.0:
        return None
    return iterations / math.log10(history[0] / history[-1])


def _detail(span: SpanRecord) -> str:
    """Compact one-line rendering of the most informative attributes."""
    parts = []
    for key in sorted(span.attrs):
        # A solver span's residual curve stays in the JSON exports; the
        # report prints its slope next to the iteration count.
        if key in ("kind", "residual_history"):
            continue
        value = span.attrs[key]
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
        if key == "iterations":
            rate = iterations_per_decade(value, span.attrs.get("residual_history", ()))
            if rate is not None:
                parts.append(f"iterations/decade={rate:.3g}")
    if span.events:
        parts.append(f"events={len(span.events)}")
    return " ".join(parts)
