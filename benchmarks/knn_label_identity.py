#!/usr/bin/env python3
"""Are the k-NN labels of this tree those of another checkout?

    python3 benchmarks/knn_label_identity.py --parent /path/to/parent/checkout

Runs the four ``benchmarks/e2e`` geometries x seeds 0-4 x every scan of
the workload's patient through a ``SurgicalSession`` twice -- once on
``<parent>/src``, once on this tree's ``src`` -- and compares, scan by
scan, the hash of the segmentation and of the nodal field the scan went
on to produce. The inputs come from this tree's harness both times (their
hash is compared too). Prints one line and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = range(5)


def hashes() -> None:
    """Child mode: one JSON line per processed scan on whatever ``repro`` is importable."""
    sys.path.insert(0, str(HERE / "e2e"))
    from inputs import make_inputs
    from session_load import begin_session
    from spec import WORKLOADS

    from repro.util.atomicio import checksum_array

    for workload in WORKLOADS.values():
        for seed in SEEDS:
            inputs = make_inputs(workload, seed, n_patients=1)
            patient = inputs.patients[0]
            session, _ = begin_session(workload, inputs, patient)
            for scan_id, scan in zip(patient.scan_ids, patient.scans):
                result = session.process(scan)
                row = {
                    "scan": f"{workload.name}/seed{seed}/scan{scan_id}",
                    "inputs": inputs.sha,
                    "voxels": int(result.segmentation.data.size),
                    "segmentation": checksum_array(result.segmentation.data),
                    "nodal": result.field_shas()[0],
                }
                print(json.dumps(row), flush=True)


def run_side(src: Path) -> dict[str, dict]:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--hashes"],
        env=env, check=True, capture_output=True, text=True,
    )
    rows = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    return {row["scan"]: row for row in rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout whose src/ is the reference")
    parser.add_argument("--hashes", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.hashes:
        hashes()
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    parent = run_side(args.parent.resolve() / "src")
    change = run_side(HERE.parent / "src")
    differing = sorted(
        scan for scan in parent.keys() | change.keys()
        if parent.get(scan) != change.get(scan)
    )
    voxels = sum(row["voxels"] for row in parent.values())
    print(
        f"k-NN label identity: {len(parent) - len(differing)}/{len(parent)} scans "
        f"({voxels:,} voxels) have the parent's segmentation and nodal-field hashes"
        + (f"; differing: {', '.join(differing)}" if differing else "")
    )
    return 1 if differing or not parent else 0


if __name__ == "__main__":
    sys.exit(main())
