"""In-process workloads: a ``SurgicalSession`` driven scan after scan.

Set-up (preoperative build + the session's first scan) is repeated and
reported as a median; the last set-up's session then serves the timed,
closed-loop scans. Everything a layer metric needs is read from public
result fields after the scan's latency has been taken; a machine-speed
probe runs between scans (see calibration.py).
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro import IntraoperativePipeline, PipelineConfig
from repro.core.session import SurgicalSession
from repro.imaging.metrics import dice_coefficient
from repro.util.atomicio import checksum_array

from calibration import SpeedProbe, slowdown
from inputs import INTRAOP_BRAIN_LABELS, Inputs, Patient
from spans import SpanRecorder
from spec import DETERMINISTIC_SCANS, Workload


def field_error_mm(result, truth, mask) -> float:
    """Mean |u_recovered - u_true| over the preoperative brain mask (mm)."""
    diff = np.asarray(result.grid_displacement) - truth.true_forward_mm
    return float(np.linalg.norm(diff, axis=-1)[mask].mean())


def scan_failures(result) -> list[str]:
    """Output check of one scan; an empty list means it passed."""
    failures = []
    for name, array in (
        ("nodal_displacement", result.nodal_displacement),
        ("grid_displacement", result.grid_displacement),
        ("deformed_mri", result.deformed_mri.data),
    ):
        if not np.isfinite(np.asarray(array)).all():
            failures.append(f"non-finite {name}")
    if not result.simulation.solver.converged:
        failures.append("GMRES did not converge")
    report = result.degradation
    if report is not None and (report.degraded or report.escalated):
        failures.append(f"degraded: {report.label}")
    return failures


def scan_row(result, latency: float, inputs: Inputs, scan_id: int) -> dict:
    """Everything the record keeps about one processed scan."""
    truth = inputs.truths[scan_id]
    solver = result.simulation.solver
    stats = result.simulation.cache_stats
    seg_brain = np.isin(result.segmentation.data, INTRAOP_BRAIN_LABELS)
    true_brain = np.isin(truth.labels.data, INTRAOP_BRAIN_LABELS)
    return {
        "scan_id": scan_id,
        "latency_s": latency,
        "stages": {e.stage: e.seconds for e in result.timeline.entries},
        "iterations": int(solver.iterations),
        "restarts": int(solver.restarts),
        "converged": bool(solver.converged),
        "cache_hit": bool(result.simulation.cache_hit),
        "cache_hit_ratio": None if stats is None else float(stats.hit_ratio),
        "warm_started": bool(result.simulation.warm_started),
        "mi_evaluations": 0 if result.rigid is None else int(result.rigid.evaluations),
        "n_prototypes": int(len(result.prototypes.labels)),
        "field_err_mm": field_error_mm(result, truth, inputs.brain_mask),
        "do_nothing_err_mm": truth.do_nothing_err_mm,
        "dice_brain": float(dice_coefficient(seg_brain, true_brain)),
        "nodal_sha": checksum_array(np.asarray(result.nodal_displacement, dtype=float)),
        "failures": scan_failures(result),
    }


def add_scan_spans(recorder: SpanRecorder, parent, name, start, end, row) -> None:
    """A scan span with its stage children rebuilt from the Timeline."""
    scan_span = recorder.add(name, start, end, parent, scan=name)
    recorder.add_sequence(scan_span, start, row["stages"].items(), scan=name)


def begin_session(workload: Workload, inputs: Inputs, patient: Patient):
    """Fresh pipeline + preoperative build; returns (session, build seconds)."""
    t0 = time.perf_counter()
    pipeline = IntraoperativePipeline(PipelineConfig(**workload.config))
    session = SurgicalSession.begin(pipeline, patient.preop_mri, inputs.preop_labels)
    return session, time.perf_counter() - t0


def run_session(
    workload: Workload, inputs: Inputs, seconds: float, setup_repeats: int,
    recorder: SpanRecorder, root: int | None,
) -> dict:
    patient = inputs.patients[0]
    setups = []
    session = None
    probe = SpeedProbe()
    speed = probe()  # the first run touches the probe's buffers
    for rep in range(setup_repeats):
        session = None
        gc.collect()
        before = probe.settled()
        t0 = time.perf_counter()
        session, build_s = begin_session(workload, inputs, patient)
        first = session.process(patient.scans[0])
        t1 = time.perf_counter()
        speed = probe.settled()
        row = scan_row(first, t1 - t0 - build_s, inputs, patient.scan_ids[0])
        slow = slowdown(before, speed)
        setups.append(
            {"setup_s": (t1 - t0) / slow, "setup_wall_s": t1 - t0, "slowdown": slow,
             "preop_build_s": build_s, "first_scan": row}
        )
        setup_span = recorder.add("setup", t0, t1, root, scan=f"setup[{rep}]")
        recorder.add("prepare_preoperative", t0, t0 + build_s, setup_span, f"setup[{rep}]")
        add_scan_spans(recorder, setup_span, "first_scan", t0 + build_s, t1, row)

    rows = []
    n_scans = len(patient.scans)
    t_start = time.perf_counter()
    # At least the deterministic scans, however slow the machine is.
    while time.perf_counter() - t_start < seconds or len(rows) < DETERMINISTIC_SCANS:
        index = len(rows)
        k = (index + 1) % n_scans
        t0 = time.perf_counter()
        result = session.process(patient.scans[k])
        t1 = time.perf_counter()
        before, speed = speed, probe()
        row = scan_row(result, t1 - t0, inputs, patient.scan_ids[k])
        row["slowdown"] = slowdown(before, speed)
        row["latency_ref_s"] = row["latency_s"] / row["slowdown"]
        # Every second cycle of the four scans stays untraced even in a
        # traced run, so the recorder's cost shows as the difference between
        # two interleaved halves that hold the same scans.
        row["traced"] = recorder.enabled and (index // n_scans) % 2 == 0
        if row["traced"]:
            add_scan_spans(recorder, root, f"scan[{index}]", t0, t1, row)
        rows.append(row)
    wall = time.perf_counter() - t_start
    return {"setups": setups, "rows": rows, "wall_s": wall, "session": session}
