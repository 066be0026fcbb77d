#!/usr/bin/env python3
"""What does band-limited classification move, against another checkout?

    python3 benchmarks/band_classification.py --parent /path/to/parent/checkout

Runs every scan of the four ``benchmarks/e2e`` geometries (one patient
each, through a ``SurgicalSession``) and the paper-size Fig. 6 case
(96x96x72, 6 and 9 mm, 16 ranks), seeds 0-9 (``--seeds N``: 0..N-1), on
``<parent>/src`` and on this tree's ``src``, then prints per group:

* labels the band moved: this tree's segmentation against the same
  classifier run on every voxel (same prototypes, same rigid map), how
  many of those changed the brain / non-brain side, and of those how many
  now disagree with the true brain mask ("wrong");
* labels moved against the parent's segmentation, and brain flips;
* brain Dice against the true intraoperative labels inside the band
  (the voxels this tree classified), both trees;
* ``field_err_mm`` (mean |u - u_true| over the preoperative brain), both
  trees, and on how many scans it is bit-equal.

The inputs come from this tree's e2e harness both times. Exits 1 when a
scan's field error is worse than the parent's or the band flips a voxel
to the wrong side of the true brain mask. Takes about 8 minutes on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
PAPER_SHIFTS_MM = (6.0, 9.0)


def _scans(seeds: range):
    """``(group, key, preop mri, preop labels, config, [(scan, truth labels, true field)])``."""
    sys.path.insert(0, str(HERE / "e2e"))
    from inputs import make_inputs
    from spec import WORKLOADS

    from repro import PipelineConfig
    from repro.experiments.common import PAPER_SYSTEM_SMALL
    from repro.imaging.phantom import make_neurosurgery_case

    for workload in WORKLOADS.values():
        for seed in seeds:
            inputs = make_inputs(workload, seed, n_patients=1)
            patient = inputs.patients[0]
            truths = [inputs.truths[k] for k in patient.scan_ids]
            yield (
                workload.name, f"{workload.name}/seed{seed}", patient.preop_mri,
                inputs.preop_labels, PipelineConfig(**workload.config),
                [(s, t.labels, t.true_forward_mm) for s, t in zip(patient.scans, truths)],
            )
    config = PipelineConfig(target_mesh_nodes=PAPER_SYSTEM_SMALL // 3, n_ranks=16)
    for seed in seeds:
        cases = [
            make_neurosurgery_case(shape=(96, 96, 72), shift_mm=s, seed=seed)
            for s in PAPER_SHIFTS_MM
        ]
        yield (
            "paper-size", f"paper-size/seed{seed}", cases[0].preop_mri, cases[0].preop_labels,
            config, [(c.intraop_mri, c.intraop_labels, c.true_forward_mm) for c in cases],
        )


def dump(out: Path, seeds: range) -> None:
    """Child mode: run every scan on whatever ``repro`` is importable; one
    ``.npz`` and one JSON line per scan."""
    from repro import IntraoperativePipeline
    from repro.core.session import SurgicalSession
    from repro.segmentation.knn import KNNClassifier

    for group, key, preop_mri, preop_labels, config, scans in _scans(seeds):
        pipeline = IntraoperativePipeline(config)
        session = SurgicalSession.begin(pipeline, preop_mri, preop_labels)
        brain = np.isin(preop_labels.data, config.brain_labels)
        for k, (scan, truth, true_field) in enumerate(scans):
            result = session.process(scan)
            err = np.linalg.norm(result.grid_displacement - true_field, axis=-1)[brain].mean()
            arrays = {"seg": result.segmentation.data, "truth": truth.data}
            preop = session.preop
            if getattr(preop, "band", None) is not None:
                # The same classifier on every voxel, and the voxels in the band.
                from repro.imaging.resample import nearest_flat_index

                transform = result.rigid.transform
                clf = KNNClassifier(k=config.knn_k).fit_prototypes(result.prototypes)
                arrays["full"] = clf.segment(scan, preop.localization, transform).data
                mapped = transform.apply(scan.voxel_centers())
                flat, on_grid = nearest_flat_index(preop.labels, mapped)
                in_band = pipeline._classification_band(preop).ravel().take(flat) & on_grid
                arrays["in_band"] = in_band.reshape(scan.shape)
            name = f"{key.replace('/', '.')}.scan{k}"
            np.savez_compressed(out / f"{name}.npz", **arrays)
            print(json.dumps({"group": group, "name": name, "field_err_mm": float(err)}),
                  flush=True)


def run_side(src: Path, out: Path, seeds: int) -> dict[str, dict]:
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--dump", str(out),
         "--seeds", str(seeds)],
        env=env, check=True, capture_output=True, text=True,
    )
    rows = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    return {row["name"]: row for row in rows}


def _dice(a: np.ndarray, b: np.ndarray) -> float:
    total = a.sum() + b.sum()
    return 2.0 * (a & b).sum() / total if total else 1.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout whose src/ is the reference")
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 (default 10)")
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump is not None:
        dump(args.dump, range(args.seeds))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    sys.path.insert(0, str(HERE.parent / "src"))
    from repro.core.config import PipelineConfig
    from repro.util import format_table

    brain_labels = PipelineConfig().intraop_brain_labels
    with tempfile.TemporaryDirectory() as tmp:
        parent = run_side(args.parent.resolve() / "src", Path(tmp) / "parent", args.seeds)
        change = run_side(HERE.parent / "src", Path(tmp) / "change", args.seeds)
        groups: dict[str, list[dict]] = {}
        for name, row in change.items():
            old = np.load(Path(tmp) / "parent" / f"{name}.npz")
            new = np.load(Path(tmp) / "change" / f"{name}.npz")
            seg, full, in_band = new["seg"], new["full"], new["in_band"]
            brain = lambda labels: np.isin(labels, brain_labels)
            truth = brain(new["truth"])[in_band]
            groups.setdefault(row["group"], []).append({
                "band_share": in_band.mean(),
                "band_moved": (seg != full).mean(),
                "band_flips": int((brain(seg) != brain(full)).sum()),
                "band_flips_wrong": int(
                    ((brain(seg) != brain(full)) & (brain(seg) != brain(new["truth"]))).sum()
                ),
                "moved": (seg != old["seg"]).mean(),
                "flips": int((brain(seg) != brain(old["seg"])).sum()),
                "dice_old": _dice(brain(old["seg"])[in_band], truth),
                "dice_new": _dice(brain(seg)[in_band], truth),
                "err_old": parent[name]["field_err_mm"],
                "err_new": row["field_err_mm"],
            })
    table, worse, flips = [], 0, 0
    span = lambda rows, key, scale=100.0: (
        f"{scale * min(r[key] for r in rows):.2f}–{scale * max(r[key] for r in rows):.2f}"
    )
    for group, rows in groups.items():
        worse += sum(r["err_new"] > r["err_old"] for r in rows)
        flips += sum(r["band_flips_wrong"] for r in rows)
        table.append([
            group, len(rows), span(rows, "band_share"), span(rows, "band_moved"),
            f"{sum(r['band_flips'] for r in rows)} ({sum(r['band_flips_wrong'] for r in rows)})",
            span(rows, "moved"),
            sum(r["flips"] for r in rows),
            f"{np.mean([r['dice_old'] for r in rows]):.4f} → "
            f"{np.mean([r['dice_new'] for r in rows]):.4f}",
            f"{np.mean([r['err_old'] for r in rows]):.4f} → "
            f"{np.mean([r['err_new'] for r in rows]):.4f}",
            f"{sum(r['err_new'] == r['err_old'] for r in rows)}/{len(rows)}",
        ])
    print(format_table(
        ["inputs", "scans", "band %", "moved by band %", "band brain flips (wrong)",
         "moved vs parent %", "brain flips vs parent", "Dice in band", "field_err_mm",
         "err bit-equal"],
        table,
    ))
    print(
        f"{worse} scans with a worse field error than the parent, {flips} band brain "
        "flips that disagree with the true brain mask"
    )
    return 1 if worse or flips else 0


if __name__ == "__main__":
    sys.exit(main())
