"""Diff freshly produced BENCH_*.json records against committed baselines.

The bench-regression CI job reruns the smoke benchmarks, then compares
the hot-path metrics of each fresh record against the baseline checked
in under ``benchmarks/baselines/``. A metric that regresses by more
than the tolerance band (default 25%) fails the job; any smaller
regression is reported as a warning so drift is visible before it
crosses the bar. Run::

    python -m repro.tools.benchdiff --baseline benchmarks/baselines \
        --fresh benchmarks [--fail-pct 25] [FILE.json ...]

Each benchmark file declares its hot-path metrics in :data:`HOT_PATHS`
as ``(dotted.path, direction)`` pairs, where the dotted path may index
into lists (``scans.0.cold_seconds``) and the direction says which way
is better. Regression is relative to the baseline value::

    higher-better:  (base - new) / base
    lower-better:   (new - base) / base

Files absent from either side are skipped with a warning (a missing
fresh record usually means the producing benchmark was not run), as are
metrics whose baseline is non-positive (no meaningful relative band) and
the metrics of a block recorded at smoke size on one side and at full
size on the other (its ``smoke`` flags differ) or on another core count
(its ``nproc`` differs): unlike records are not compared, so they are
neither a regression nor a pass.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

#: Hot-path metrics per benchmark record: (dotted path, direction).
#: Direction is "higher" or "lower" — which way is better.
HOT_PATHS: dict[str, list[tuple[str, str]]] = {
    "BENCH_throughput.json": [
        ("pool_scans_per_s", "higher"),
        ("speedup", "higher"),
    ],
    "BENCH_hotpath.json": [
        ("scans.0.cold_seconds", "lower"),
        ("scans.0.warm_seconds", "lower"),
        ("mesh_generation.seconds", "lower"),
        ("mesh_generation.peak_bytes_allocated", "lower"),
        ("rigid_registration.evaluations", "lower"),
        ("rigid_registration.seconds", "lower"),
        ("surface_snap.iterations", "lower"),
        ("surface_snap.seconds", "lower"),
        ("classification.seconds", "lower"),
        ("classification_band.seconds", "lower"),
        ("resample.seconds", "lower"),
        ("pipeline_solve.iterations", "lower"),
        ("pipeline_solve.seconds", "lower"),
        ("pipeline_solve_production.iterations", "lower"),
        ("pipeline_solve_production.seconds", "lower"),
        ("distance_transform.window_voxels", "lower"),
        ("distance_transform.seconds", "lower"),
        ("block_factorization.seconds", "lower"),
        ("block_fsai.g_nnz", "lower"),
        ("patient_model_build.seconds", "lower"),
    ],
    "BENCH_soak.json": [
        ("throughput_scans_per_s", "higher"),
    ],
    "BENCH_netsoak.json": [
        ("throughput_scans_per_s", "higher"),
    ],
}


@dataclass(frozen=True)
class Delta:
    """Outcome of comparing one metric between baseline and fresh."""

    file: str
    path: str
    direction: str
    base: float
    new: float
    regression_pct: float

    def describe(self) -> str:
        arrow = "↑" if self.direction == "higher" else "↓"
        return (
            f"{self.file}:{self.path} ({arrow} better) "
            f"base={self.base:.6g} new={self.new:.6g} "
            f"regression={self.regression_pct:+.1f}%"
        )


_MISSING = (KeyError, IndexError, TypeError, ValueError)


def _descend(record: object, parts: list[str]) -> object:
    node = record
    for part in parts:
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict):
            node = node[part]
        else:
            raise KeyError(f"cannot descend into {type(node).__name__} at {part!r}")
    return node


def resolve(record: object, dotted: str) -> float:
    """Fetch ``dotted`` out of a parsed JSON record.

    Path segments are dict keys or (possibly negative) list indices:
    ``scans.-1.warm_seconds`` is the last scan's warm time.
    """
    return float(_descend(record, dotted.split(".")))


def unlike_blocks(base: object, new: object, dotted: str) -> str | None:
    """Why the blocks holding ``dotted`` are not comparable, if they are not.

    A block that records its size class carries a ``smoke`` flag; a smoke
    block against a full-size one is a different system, not a slower one.
    The message names both sizes: the integer fields that differ. A block
    that records ``nproc`` (a kernel that spreads over the cores it may
    use) is compared only with a block that records the same ``nproc``:
    on another core count it is another kernel, not a slower one.
    """
    parts = dotted.split(".")[:-1]
    try:
        base_block, new_block = _descend(base, parts), _descend(new, parts)
    except _MISSING:
        return None  # no block on one side: the lookup says so
    if not (isinstance(base_block, dict) and isinstance(new_block, dict)):
        return None
    if ("nproc" in base_block or "nproc" in new_block) and (
        base_block.get("nproc") != new_block.get("nproc")
    ):
        return (
            f"baseline ran on nproc {base_block.get('nproc', 'unrecorded')}, "
            f"fresh on nproc {new_block.get('nproc', 'unrecorded')}"
        )
    try:
        base_smoke, new_smoke = bool(base_block["smoke"]), bool(new_block["smoke"])
    except _MISSING:
        return None  # no flag on one side
    if base_smoke == new_smoke:
        return None
    sizes = "; ".join(
        f"{key} {value:,} vs {new_block[key]:,}"
        for key, value in base_block.items()
        if type(value) is int and type(new_block.get(key)) is int
        and value != new_block[key]
    )
    kind = {True: "smoke", False: "full-size"}
    return (
        f"baseline is a {kind[base_smoke]} block, fresh is {kind[new_smoke]}"
        + (f" ({sizes})" if sizes else "")
    )


def compare(file: str, base: dict, new: dict,
            metrics: list[tuple[str, str]]) -> tuple[list[Delta], list[str]]:
    """Compare the hot-path metrics of one record pair."""
    deltas: list[Delta] = []
    warnings: list[str] = []
    refused: set[str] = set()
    for dotted, direction in metrics:
        block = dotted.rpartition(".")[0]
        if block in refused:
            continue
        unlike = unlike_blocks(base, new, dotted)
        if unlike is not None:
            refused.add(block)
            where = f"{file}:{block}" if block else file
            warnings.append(f"{where}: {unlike} -- not compared")
            continue
        try:
            base_value = resolve(base, dotted)
        except _MISSING as exc:
            warnings.append(f"{file}:{dotted}: missing in baseline ({exc})")
            continue
        try:
            new_value = resolve(new, dotted)
        except _MISSING as exc:
            warnings.append(f"{file}:{dotted}: missing in fresh record ({exc})")
            continue
        if base_value <= 0:
            warnings.append(
                f"{file}:{dotted}: baseline {base_value:.6g} <= 0, "
                "no relative band — skipped"
            )
            continue
        if direction == "higher":
            regression = (base_value - new_value) / base_value
        else:
            regression = (new_value - base_value) / base_value
        deltas.append(Delta(file, dotted, direction, base_value, new_value,
                            100.0 * regression))
    return deltas, warnings


def run_diff(baseline_dir: Path, fresh_dir: Path, fail_pct: float,
             files: list[str]) -> int:
    """Diff every requested record; return the process exit code."""
    failures: list[Delta] = []
    warnings: list[str] = []
    compared = 0
    for name in files:
        metrics = HOT_PATHS.get(name)
        if not metrics:
            warnings.append(f"{name}: no hot-path metrics declared — skipped")
            continue
        base_path = baseline_dir / name
        fresh_path = fresh_dir / name
        if not base_path.is_file():
            warnings.append(f"{name}: no baseline at {base_path} — skipped")
            continue
        if not fresh_path.is_file():
            warnings.append(f"{name}: no fresh record at {fresh_path} — skipped")
            continue
        base = json.loads(base_path.read_text())
        new = json.loads(fresh_path.read_text())
        deltas, file_warnings = compare(name, base, new, metrics)
        warnings.extend(file_warnings)
        for delta in deltas:
            compared += 1
            status = "ok"
            if delta.regression_pct > fail_pct:
                failures.append(delta)
                status = "FAIL"
            elif delta.regression_pct > 0:
                status = "warn"
            print(f"[{status}] {delta.describe()}")
    for message in warnings:
        print(f"[warn] {message}")
    print(
        f"benchdiff: {compared} metric(s) compared, "
        f"{len(failures)} regression(s) past {fail_pct:.0f}%, "
        f"{len(warnings)} warning(s)"
    )
    if failures:
        for delta in failures:
            print(f"regression past tolerance: {delta.describe()}")
        return 1
    if compared == 0:
        print("benchdiff: nothing compared — check --baseline/--fresh paths")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.benchdiff", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", type=Path, required=True,
                        help="directory holding committed baseline BENCH_*.json")
    parser.add_argument("--fresh", type=Path, required=True,
                        help="directory holding freshly produced BENCH_*.json")
    parser.add_argument("--fail-pct", type=float, default=25.0,
                        help="hot-path regression tolerance in percent "
                             "(default: 25)")
    parser.add_argument("files", nargs="*", default=[],
                        help="record filenames to diff "
                             "(default: every file with declared hot paths)")
    args = parser.parse_args(argv)
    files = args.files or sorted(HOT_PATHS)
    return run_diff(args.baseline, args.fresh, args.fail_pct, files)


if __name__ == "__main__":
    sys.exit(main())
