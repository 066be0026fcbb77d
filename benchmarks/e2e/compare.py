#!/usr/bin/env python3
"""Apply BENCHMARK.json's bounds to two records, or two sets of records.

    python3 benchmarks/e2e/compare.py A B     # A = parent, B = change
    python3 benchmarks/e2e/compare.py A       # run-to-run spread of one set

A and B are record files or directories of records (``run.py`` writes
them to ``benchmarks/e2e/out/``; copy that directory aside per set). One
row per workload x end-to-end metric: ``ok`` / ``regressed`` /
``improved`` against the metric's bound on the medians, ``unresolved``
when the run-to-run spread (quartile distance over median) is wider than
the bound. Sets with unlike provenance (scale, seconds, backend, core
count, seeds) are refused. Exit status is non-zero on any regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spec import load_benchmark  # noqa: E402
from stats import LIKE_FIELDS, judge, quartile_spread  # noqa: E402


class UnlikeRecords(ValueError):
    """The two sets were not produced under comparable conditions."""


def load_set(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        record = json.loads(file.read_text())
        if "provenance" in record and not record["provenance"]["traced"]:
            records.append(record)
    if not records:
        raise UnlikeRecords(f"no untraced records under {path}")
    return records


def by_workload(records: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for record in records:
        out.setdefault(record["provenance"]["workload"], []).append(record)
    return out


def check_alike(a: list[dict], b: list[dict]) -> None:
    """Raise unless both sets share scale, seconds, backend, cores and seeds."""
    for field in LIKE_FIELDS:
        values = {json.dumps(r["provenance"].get(field)) for r in a + b}
        if len(values) > 1:
            raise UnlikeRecords(f"records differ in {field}: {sorted(values)}")
    seeds_a = sorted(r["provenance"]["seed"] for r in a)
    seeds_b = sorted(r["provenance"]["seed"] for r in b)
    if seeds_a != seeds_b:
        raise UnlikeRecords(f"sets used different seeds: {seeds_a} vs {seeds_b}")


def values(records: list[dict], metric: str) -> list[float]:
    return [r["end_to_end"][metric]["value"] for r in records]


def compare(a: list[dict], b: list[dict], benchmark: dict) -> list[dict]:
    """One row per workload x end-to-end metric."""
    sets_a, sets_b = by_workload(a), by_workload(b)
    rows = []
    for workload in sorted(set(sets_a) & set(sets_b)):
        check_alike(sets_a[workload], sets_b[workload])
        for metric in benchmark["end_to_end"]:
            va = values(sets_a[workload], metric["name"])
            vb = values(sets_b[workload], metric["name"])
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "a": statistics.median(va),
                    "b": statistics.median(vb),
                    "spread_a": quartile_spread(va),
                    "spread_b": quartile_spread(vb),
                    "n": (len(va), len(vb)),
                    "verdict": judge(va, vb, metric["bound"], metric["better"]),
                }
            )
    missing = sorted(set(sets_a) ^ set(sets_b))
    if missing:
        raise UnlikeRecords(f"workloads present in only one set: {missing}")
    return rows


def spread(a: list[dict], benchmark: dict) -> list[dict]:
    """Run-to-run spread of one set against each metric's bound."""
    rows = []
    for workload, records in sorted(by_workload(a).items()):
        for metric in benchmark["end_to_end"]:
            vals = values(records, metric["name"])
            share = quartile_spread(vals)
            rows.append(
                {
                    "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                    "bound": metric["bound"], "a": statistics.median(vals), "n": len(vals),
                    "spread_a": share,
                    "verdict": (
                        "steady" if share < metric["bound"] / 3
                        else "within-bound" if share <= metric["bound"]
                        else "unsteady"
                    ),
                }
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    try:
        a = load_set(Path(argv[0]))
        if len(argv) == 1:
            rows = spread(a, benchmark)
            for r in rows:
                print(
                    f"{r['workload']:18s} {r['metric']:20s} n={r['n']:<3d} "
                    f"median {r['a']:10.4f} {r['unit']:4s} spread {r['spread_a']:6.1%} "
                    f"bound {r['bound']:4.0%}  {r['verdict']}"
                )
            return 0
        rows = compare(a, load_set(Path(argv[1])), benchmark)
    except UnlikeRecords as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    for r in rows:
        print(
            f"{r['workload']:18s} {r['metric']:20s} A {r['a']:10.4f} B {r['b']:10.4f} "
            f"{r['unit']:4s} spread {r['spread_a']:5.1%}/{r['spread_b']:5.1%} "
            f"bound {r['bound']:4.0%} n={r['n'][0]}/{r['n'][1]}  {r['verdict']}"
        )
    bad = [r for r in rows if r["verdict"] == "regressed"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
