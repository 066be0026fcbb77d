"""Metrics registry: counters, gauges and histograms behind one API.

The repro already produces plenty of numbers — :class:`repro.fem.CacheStats`
hit/miss counters, Krylov iteration/restart/residual records, mesh and
element counts — but each lives in its own ad-hoc structure. The
registry absorbs them behind the three standard instrument kinds so
session summaries, exporters and tests read one interface:

* :class:`Counter` — monotonically increasing total (cache hits, solver
  iterations, bytes on the wire).
* :class:`Gauge` — last-written value (mesh node count, final residual).
* :class:`Histogram` — streaming distribution (per-scan solve seconds,
  per-restart residual drops) with count/sum/min/max/mean and
  :meth:`~Histogram.quantile` percentiles.

Instruments are get-or-create by name, so independent modules can
``registry.counter("solver.iterations").inc(n)`` without coordination.

Registries also cross process boundaries: :meth:`MetricsRegistry.snapshot`
renders one as a plain JSON-serializable dict and
:meth:`MetricsRegistry.merge` folds such a snapshot into another
registry with per-instrument-kind semantics — counters **sum**, gauges
are **last-write-wins** (optionally namespaced under a worker label so
per-worker values never clobber each other), histograms **concatenate**
their observations. The serving tier uses this to aggregate worker-side
``solver.*`` / cache metrics into the server's registry.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.util import ValidationError


@dataclass
class Counter:
    """Monotonically increasing counter."""

    name: str
    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValidationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self.value += amount


@dataclass
class Gauge:
    """Last-written value."""

    name: str
    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


#: Quantiles reported by :meth:`Histogram.summary` (and the exporters).
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


@dataclass
class Histogram:
    """Streaming distribution summary (count/sum/min/max, no buckets).

    Raw observations are retained (the series are small — one entry per
    scan or per restart cycle, not per inner iteration) so exporters can
    compute exact percentiles via :meth:`quantile`.
    """

    name: str
    values: list[float] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def observe(self, value: float) -> None:
        with self._lock:
            self.values.append(float(value))

    def extend(self, values) -> None:
        """Concatenate a batch of observations (snapshot merging)."""
        batch = [float(v) for v in values]
        with self._lock:
            self.values.extend(batch)

    def quantile(self, q: float) -> float:
        """Exact ``q``-quantile (0 <= q <= 1) by linear interpolation.

        Computed over the retained observations (nearest-rank with
        linear interpolation between closest ranks — numpy's default);
        0.0 on an empty histogram, so summary tables never raise.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(
                f"histogram {self.name!r}: quantile must be in [0, 1], got {q}"
            )
        with self._lock:
            if not self.values:
                return 0.0
            ordered = sorted(self.values)
        rank = q * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return float(sum(self.values))

    @property
    def min(self) -> float:
        return min(self.values) if self.values else 0.0

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.values else 0.0

    def summary(self) -> dict[str, float]:
        out = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        for q in SUMMARY_QUANTILES:
            out[f"p{round(q * 100)}"] = self.quantile(q)
        return out


class MetricsRegistry:
    """Named instruments, get-or-create, one namespace per registry.

    A name identifies exactly one instrument; asking for the same name
    with a different kind is an error (it would silently fork state).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, object] = {}

    def _get_or_create(self, name: str, cls):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise ValidationError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, requested {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str):
        """The instrument registered under ``name`` (None when absent)."""
        with self._lock:
            return self._instruments.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar value of a counter/gauge (``default`` when absent)."""
        inst = self.get(name)
        if inst is None:
            return default
        if isinstance(inst, Histogram):
            raise ValidationError(f"metric {name!r} is a histogram; use .get()")
        return inst.value

    def as_dict(self) -> dict[str, object]:
        """All instruments as plain JSON-serializable values."""
        with self._lock:
            out: dict[str, object] = {}
            for name, inst in sorted(self._instruments.items()):
                if isinstance(inst, Histogram):
                    out[name] = inst.summary()
                else:
                    out[name] = inst.value
            return out

    # -- cross-process aggregation -------------------------------------------

    def snapshot(self) -> dict:
        """The registry as one plain, picklable, JSON-serializable dict.

        Shape: ``{"counters": {name: value}, "gauges": {name: value},
        "histograms": {name: [observations...]}}``. Histograms carry
        their raw observations so a :meth:`merge` on the receiving side
        preserves exact quantiles — the series are per-scan/per-solve
        sized, not per-iteration, so frames stay compact.
        """
        with self._lock:
            instruments = list(self._instruments.items())
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, inst in instruments:
            if isinstance(inst, Counter):
                out["counters"][name] = inst.value
            elif isinstance(inst, Gauge):
                out["gauges"][name] = inst.value
            elif isinstance(inst, Histogram):
                with inst._lock:
                    out["histograms"][name] = list(inst.values)
        return out

    def merge(self, snapshot: dict, worker: str | int | None = None) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Per-instrument-kind semantics:

        * **counters sum** — worker totals accumulate into the shared
          name (``solver.iterations`` across 4 workers is their sum);
        * **gauges are last-write-wins** — and when ``worker`` is given
          each gauge *also* lands under ``name[worker=...]`` so
          per-worker values (cache hit ratios, last residuals) remain
          individually visible instead of clobbering each other;
        * **histograms concatenate** their observations, preserving
          exact merged quantiles.

        Thread-safe against concurrent ``observe``/``inc`` calls and
        other merges: every underlying instrument update takes that
        instrument's own lock.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(float(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(float(value))
            if worker is not None:
                self.gauge(f"{name}[worker={worker}]").set(float(value))
        for name, values in snapshot.get("histograms", {}).items():
            self.histogram(name).extend(values)

    def record_cache_stats(self, stats, prefix: str = "solve_context") -> None:
        """Absorb :class:`repro.fem.CacheStats` into gauge metrics.

        Gauges (not counters) because ``stats`` already *is* the running
        total — re-recording after every scan must not double-count.
        """
        self.gauge(f"{prefix}.hits").set(stats.hits)
        self.gauge(f"{prefix}.misses").set(stats.misses)
        self.gauge(f"{prefix}.invalidations").set(stats.invalidations)
        self.gauge(f"{prefix}.hit_ratio").set(stats.hit_ratio)

    def record_solver_result(self, result) -> None:
        """Absorb a :class:`repro.solver.KrylovResult` into the ``solver.*`` series.

        One set of names for every method: the pipeline's CG solves and a
        GMRES solve land in the same counters.
        """
        self.counter("solver.solves").inc()
        self.counter("solver.iterations").inc(result.iterations)
        self.counter("solver.restarts").inc(result.restarts)
        if not result.converged:
            self.counter("solver.failures").inc()
        self.gauge("solver.last_residual").set(result.residual_norm)
        self.histogram("solver.iterations_per_solve").observe(result.iterations)
