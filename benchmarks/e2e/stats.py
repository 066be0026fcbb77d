"""Statistics, provenance and bound comparison shared by run.py and compare.py.

No dependency on ``repro`` or numpy: compare.py and the self-tests must
work on records alone.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from pathlib import Path

#: Percentiles a timing may be reported at besides the median.
TAIL_LADDER = (75, 90, 95, 99)
#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0..100) of ``values``."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    rank = (len(data) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def tail_percentile(n: int) -> int | None:
    """Highest ladder percentile with >= MIN_BEYOND of ``n`` samples beyond it."""
    best = None
    for p in TAIL_LADDER:
        if n * (100 - p) / 100.0 >= MIN_BEYOND:
            best = p
    return best


def summarize(values) -> dict:
    """Median + the highest supported tail percentile, with the sample count."""
    data = [float(v) for v in values]
    out = {"n": len(data), "p50": percentile(data, 50) if data else None, "tail": None}
    tail = tail_percentile(len(data))
    if tail is not None:
        out["tail"] = {"p": tail, "value": percentile(data, tail)}
    return out


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, by ``statistics.quantiles(n=4)`` — the driver's spread."""
    data = [float(v) for v in values]
    if len(data) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(data, n=4)
    mid = statistics.median(data)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def worsening(base: float, new: float, better: str) -> float:
    """Share of ``base`` by which ``new`` is worse (negative = better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta


def judge(a_values, b_values, bound: float, better: str) -> str:
    """Verdict for one workload x metric: A is the parent, B the change.

    ``ok`` / ``regressed`` / ``improved`` compare medians against the
    bound. ``unresolved`` means the run-to-run spread of either side is
    wider than the bound, so the medians cannot carry the verdict —
    unless every run of one side beats every run of the other.
    """
    a = [float(v) for v in a_values]
    b = [float(v) for v in b_values]
    worse = worsening(statistics.median(a), statistics.median(b), better)
    if len(a) > 1 and len(b) > 1 and max(quartile_spread(a), quartile_spread(b)) > bound:
        if better == "lower":
            b_wins, a_wins = max(b) < min(a), max(a) < min(b)
        else:
            b_wins, a_wins = min(b) > max(a), min(a) > max(b)
        if not (b_wins or a_wins):
            return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "ok"


def _git(repo: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(repo), *args],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def blas_threads() -> int | None:
    """BLAS thread count when an environment variable pins it, else None."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(name)
        if value and value.isdigit():
            return int(value)
    return None


def provenance(
    repo: Path, *, workload: str, seed: int, seconds: float, scale: float,
    traced: bool, harness_version: str, backend: str | None = None,
) -> dict:
    """The header every record carries; compare.py refuses unlike headers."""
    import numpy
    import scipy

    status = _git(repo, "status", "--porcelain")
    return {
        "workload": workload,
        "seed": int(seed),
        "seconds": float(seconds),
        "scale": float(scale),
        "official": scale == 1.0,
        "traced": bool(traced),
        "harness_version": harness_version,
        "git_commit": _git(repo, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "backend": backend,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "malloc_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


#: Header fields that must agree before two records may be compared.
#: (Seeds may differ between the runs of a set, but the two sets must
#: have used the same seeds.)
LIKE_FIELDS = ("scale", "seconds", "backend", "nproc", "traced", "harness_version")
