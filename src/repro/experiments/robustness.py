"""Robustness sweeps (supplementary to the paper's two clinical cases).

The paper claims the method is "a robust and reliable method for
capturing the changes in brain shape" on the basis of two cases; the
phantom allows the claim to be stress-tested systematically:

* :func:`shift_sweep` — registration accuracy as the imposed brain
  shift grows from mild (2 mm) to beyond the clinical range (10 mm);
  rigid-only error grows linearly with the shift while the
  biomechanical error should stay near the discretization floor.
* :func:`noise_sweep` — pipeline accuracy as the MR noise grows;
  the distance-model channels keep the k-NN segmentation (and hence
  everything downstream) usable well past the nominal noise level.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import IntraoperativePipeline
from repro.experiments.common import ExperimentReport
from repro.imaging.metrics import dice_coefficient
from repro.imaging.phantom import Tissue, make_neurosurgery_case


def _run_case(case, cfg: PipelineConfig):
    pipeline = IntraoperativePipeline(cfg)
    preop = pipeline.prepare_preoperative(case.preop_mri, case.preop_labels)
    return pipeline.process_scan(case.intraop_mri, preop)


def shift_sweep(
    shifts=(2.0, 4.0, 6.0, 8.0),
    shape: tuple[int, int, int] = (56, 56, 42),
    seed: int = 91,
) -> ExperimentReport:
    """Field error vs imposed brain-shift magnitude."""
    cfg = PipelineConfig(mesh_cell_mm=5.5, rigid_max_iter=1)
    report = ExperimentReport(
        exhibit="Robustness A",
        title="Registration error vs imposed brain shift",
        headers=[
            "shift (mm)",
            "rigid err mean (mm)",
            "biomech err mean (mm)",
            "biomech err p95 (mm)",
        ],
    )
    for shift in shifts:
        case = make_neurosurgery_case(shape=shape, shift_mm=shift, seed=seed)
        result = _run_case(case, cfg)
        brain = case.brain_mask()
        true = case.true_forward_mm
        rigid_err = np.linalg.norm(true, axis=-1)[brain]  # rigid leaves all of it
        err = np.linalg.norm(result.grid_displacement - true, axis=-1)[brain]
        report.rows.append(
            [shift, float(rigid_err.mean()), float(err.mean()), float(np.percentile(err, 95))]
        )
    report.notes.append(
        "rigid error equals the residual deformation (grows with shift); the "
        "biomechanical error should grow far slower, staying near the voxel/mesh floor"
    )
    report.notes.append(
        "beyond ~10 mm the phantom's analytic (Gaussian) ground-truth field "
        "increasingly departs from any elastic interior, so the comparison "
        "against it stops being meaningful (see DESIGN.md substitutions)"
    )
    return report


def noise_sweep(
    sigmas=(2.0, 4.0, 8.0, 12.0),
    shape: tuple[int, int, int] = (56, 56, 42),
    shift_mm: float = 6.0,
    seed: int = 92,
) -> ExperimentReport:
    """Pipeline accuracy vs MR noise level."""
    cfg = PipelineConfig(mesh_cell_mm=5.5, rigid_max_iter=1)
    report = ExperimentReport(
        exhibit="Robustness B",
        title="Pipeline accuracy vs MR noise (Rician sigma)",
        headers=[
            "noise sigma",
            "brain seg Dice",
            "biomech err mean (mm)",
            "biomech err p95 (mm)",
        ],
    )
    for sigma in sigmas:
        case = make_neurosurgery_case(
            shape=shape, shift_mm=shift_mm, noise_sigma=sigma, seed=seed
        )
        result = _run_case(case, cfg)
        pred_brain = np.isin(result.segmentation.data, cfg.intraop_brain_labels)
        true_brain = np.isin(
            case.intraop_labels.data,
            list(cfg.brain_labels) + [int(Tissue.RESECTION)],
        )
        dice = dice_coefficient(pred_brain, true_brain)
        brain = case.brain_mask()
        err = np.linalg.norm(result.grid_displacement - case.true_forward_mm, axis=-1)[brain]
        report.rows.append(
            [sigma, float(dice), float(err.mean()), float(np.percentile(err, 95))]
        )
    report.notes.append(
        "the saturated-distance localization channels keep the k-NN segmentation "
        "robust as intensity noise grows — the paper's stated reason for the design"
    )
    return report


def resilience_drill(
    shape: tuple[int, int, int] = (32, 32, 24),
    seed: int = 93,
) -> ExperimentReport:
    """Fault injection: degradation level and recovery per fault class.

    One 2-scan session per fault class, the fault aimed at the second
    scan; records the degradation level reached, the escalation rungs
    climbed, and whether the session survived (it always must). The
    knobs live on :class:`repro.resilience.ResiliencePolicy`
    (``max_degradation``, ``max_nonfinite_fraction``,
    ``displacement_gate_mm``, ``coarse_factor``, per-stage retries) and
    faults parse from ``--faults "SCAN:KIND[=PARAM];..."``.
    """
    from repro.core.session import SurgicalSession
    from repro.imaging.phantom import make_neurosurgery_case
    from repro.resilience import FaultPlan

    drills = (
        ("1:scan-nan=0.02", "sanitized in place"),
        ("1:scan-nan=0.5", "scan unusable"),
        ("1:kill-rank=1", "rank substitution"),
        ("1:stagnate-solver", "ladder exhausted"),
    )
    case = make_neurosurgery_case(shape=shape, shift_mm=5.0, seed=seed)
    report = ExperimentReport(
        exhibit="Robustness C",
        title="Fault-injection drill: graceful degradation per fault class",
        headers=["fault plan", "recovery", "result level", "escalation rungs", "aborted"],
    )
    for plan_text, recovery in drills:
        cfg = PipelineConfig(
            mesh_cell_mm=9.0,
            n_ranks=2,
            rigid_levels=1,
            rigid_max_iter=2,
            rigid_samples=2000,
            surface_iterations=60,
            prototypes_per_class=20,
            fault_plan=FaultPlan.parse(plan_text, seed=seed),
        )
        pipeline = IntraoperativePipeline(cfg)
        session = SurgicalSession.begin(pipeline, case.preop_mri, case.preop_labels)
        for _ in range(2):
            session.process(case.intraop_mri)
        degradation = session.history[1].degradation
        report.rows.append(
            [
                plan_text,
                recovery,
                degradation.label,
                " -> ".join(degradation.rungs_tried) or "-",
                "no",
            ]
        )
    report.notes.append(
        "every fault class ends in a usable result — rescued at full-FEM by the "
        "escalation ladder or degraded gracefully — and no session aborts; "
        "see benchmarks/BENCH_resilience.json for recovery overheads"
    )
    return report
