#!/usr/bin/env python3
"""End-to-end benchmark: scan-to-display latency on four workloads.

    python3 benchmarks/e2e/run.py                      # all four workloads, untraced
    python3 benchmarks/e2e/run.py --traced             # the per-layer (traced) pass
    python3 benchmarks/e2e/run.py --workload session-fem --seed 3 --seconds 20 --trace 0

Each workload runs in a fresh child process under a wall-clock timeout
(never two at once), so peak RSS and caches are per workload and a hung
run cannot leave workers behind: the child's whole process group is
killed when it ends. Every run writes a full record (provenance header,
metrics, samples) to ``benchmarks/e2e/out/`` and prints each metric by
name with its unit, sample count and bound; the last stdout line is the
driver's result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import OUT_DIR, REPO, WORKLOADS, load_benchmark  # noqa: E402

#: Wall-clock cap of one workload's child process (driver limit: 180 s).
CHILD_TIMEOUT_S = 170.0

#: Runtime settings of the measured processes (the child and the gateway
#: workers it forks), pinned so that every run sees the same ones; a value
#: already in the environment wins, and the record's header carries them.
#:
#: * glibc malloc keeps what it has: no mmap'd chunks, no trimming. Left to
#:   itself it maps every large temporary afresh and hands it back, and on
#:   this VM the first touch of a page the balloon has returned to the host
#:   costs 20-100 us against 1 us for a page the process kept (README.md,
#:   Findings) — the same scan then takes 0.7 s or 1.4 s depending on which
#:   pages the kernel happened to hand out.
#: * one BLAS thread per process: with two worker processes on two cores,
#:   OpenBLAS's own threads oversubscribe the box, and its threaded level-1
#:   calls inside GMRES spin on a vCPU the host may have taken away.
RUNTIME_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(2_000_000_000),
    "OPENBLAS_NUM_THREADS": "1",
}

#: Unbounded whole-run metrics printed next to the end-to-end ones.
RUN_LEVEL = ("scans_per_s", "failed_share", "result_mismatch_share")


# -- supervisor ----------------------------------------------------------------


def supervise(workload: str, args) -> dict | None:
    """Run one workload in a child process group; returns its record or None."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for name, value in RUNTIME_ENV.items():
        env.setdefault(name, value)
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(args.trace)), "--scale", str(args.scale),
    ]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, cwd=str(REPO),
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
        print(f"{workload}: timed out after {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
    finally:
        # Sweep the child's process group: gateway workers must not outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(Path(json.loads(lines[-1])["record"]).read_text())
    except (ValueError, KeyError, OSError):
        return None


def print_record(record: dict, benchmark: dict) -> None:
    prov = record["provenance"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    lat = record["samples"]["scan_latency_s"]
    tail = lat["tail"]
    print(
        f"\n== {prov['workload']}  seed={prov['seed']} seconds={prov['seconds']} "
        f"scale={prov['scale']}{'' if prov['official'] else ' (UNOFFICIAL)'} "
        f"traced={prov['traced']} commit={str(prov['git_commit'])[:8]}"
        f"{'+dirty' if prov['git_dirty'] else ''} backend={prov['backend']} "
        f"nproc={prov['nproc']} inputs={record['inputs_sha'][:12]}"
    )
    print(
        f"   timed scans n={lat['n']}  setup samples n={len(record['samples']['setup_s'])}"
        + (f"  tail p{tail['p']}={tail['value']:.4f} s" if tail else "  (n too small for a tail)")
    )
    if prov["traced"]:
        shown = record["per_layer"]
    else:
        shown = record["end_to_end"] | {k: record["per_layer"][k] for k in RUN_LEVEL}
    for name, entry in shown.items():
        bound = f"  bound {bounds[name]:.0%}" if name in bounds else ""
        print(f"   {name:38s} {entry['value']:14.6g} {entry['unit']}{bound}")
    print(f"   checks: attempted={record['attempted']} failed={record['failed']}")
    for failure in record["failures"][:10]:
        print(f"   FAILED: {failure}")
    if "trace_fold" in record:
        print(f"   trace fold error: {record['trace_fold']['fold_error_share']:.2%}")


def result_line(record: dict, benchmark: dict) -> str:
    group = "per_layer" if record["provenance"]["traced"] else "end_to_end"
    declared = [m["name"] for m in benchmark[group]]
    return json.dumps(
        {
            "correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": {name: record[group][name] for name in declared},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiplies the measured seconds (never sizes); != 1 marks records unofficial",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.trace = int(args.trace or args.traced)
    if not (REPO / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {REPO / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    if args.child:
        sys.path.insert(0, str(REPO / "src"))
        from workload import run_workload

        return run_workload(args.workload, args.seed, args.seconds, args.scale, bool(args.trace))

    names = [args.workload] if args.workload else [w["name"] for w in benchmark["workloads"]]
    status = 0
    for name in names:
        record = supervise(name, args)
        if record is None:
            print(f"{name}: no result", file=sys.stderr)
            return 3
        print_record(record, benchmark)
        print(result_line(record, benchmark))
        if not record["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
