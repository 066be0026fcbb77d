"""Child-process side of run.py: run one workload, check it, build its record."""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import ledger
from inputs import Inputs, make_inputs
from spans import SpanRecorder, fold, fold_error_share, write_trace
from spec import (
    DETERMINISTIC_SCANS, HARNESS_VERSION, OUT_DIR, REPO, WORKLOADS, Workload, load_benchmark,
)
from stats import percentile, provenance, summarize


@dataclass
class Measured:
    """What one workload run hands to the checks and the ledger."""

    setups: list[dict]
    timed: list[dict]  # one row per timed scan / case, in submit order
    checked: list[dict]  # every scan or case whose output was checked
    scan_rows: list[dict]  # in-process scan rows feeding the pipeline-layer timings
    counted: list[dict]  # the deterministic subset: counts, accuracy
    session: object  # a live SurgicalSession for the probes
    probe_scan: object
    wall_s: float
    serve_run: dict | None = None
    verified: int = 0
    mismatched: int = 0
    failures: list[str] = field(default_factory=list)


def measure_session(workload, inputs, seconds, setup_repeats, recorder, root) -> Measured:
    from session_load import run_session

    run = run_session(workload, inputs, seconds, setup_repeats, recorder, root)
    return Measured(
        setups=run["setups"],
        timed=run["rows"],
        checked=[s["first_scan"] for s in run["setups"]] + run["rows"],
        scan_rows=run["rows"],
        counted=run["rows"][:DETERMINISTIC_SCANS],
        session=run["session"],
        probe_scan=inputs.patients[0].scans[1],
        wall_s=run["wall_s"],
    )


def measure_serve(
    workload, inputs, seconds, setup_repeats, recorder, root, scratch
) -> Measured:
    from serve_load import reference_cases, run_serve

    run = run_serve(workload, inputs, seconds, setup_repeats, recorder, root, scratch)
    timed = run["rows"]
    checked = [row for s in run["setups"] for row in s["warm"]] + timed
    if workload.verify_cases:
        # Every case is a new patient, so a reference costs as much as the
        # case itself: verify the first few timed cases only.
        first = sorted(timed, key=lambda r: (r["k"], r["room"]))[: workload.verify_cases]
        pairs = [(r["patient"], r["scan_id"]) for r in first]
    else:
        pairs = sorted({(r["patient"], r["scan_id"]) for r in checked})
    refs = reference_cases(workload, inputs, pairs, recorder, root)
    failures = []
    verified = mismatched = 0
    for row in checked:
        ref = refs.get((row["patient"], row["scan_id"]))
        served = (row.get("result") or {}).get("scans") or []
        if ref is None or not served:
            continue
        verified += 1
        if served[0]["nodal_sha"] != ref["nodal_sha"]:
            mismatched += 1
            row["failures"].append("nodal_sha differs from the in-process reference")
    scan_rows = [refs[p] for p in pairs]
    failures += [f"reference scan: {r['failures']}" for r in scan_rows if r["failures"]]
    # The surviving clients served the last set-up's warm-ups and every timed
    # case: exactly one terminal result may have been pushed for each.
    expected = workload.rooms + sum(1 for r in timed if r.get("result"))
    pushed = sum(int(c.get("net.client.results", 0)) for c in run["client_metrics"])
    if pushed != expected:
        failures.append(f"{pushed} terminal results pushed for {expected} cases")
    return Measured(
        setups=run["setups"],
        timed=timed,
        checked=checked,
        scan_rows=scan_rows,
        counted=scan_rows,
        session=scan_rows[-1]["session"] if scan_rows else None,
        probe_scan=inputs.patients[pairs[-1][0]].scans[0] if pairs else None,
        wall_s=run["wall_s"],
        serve_run=run,
        verified=verified,
        mismatched=mismatched,
        failures=failures,
    )


def accuracy_checks(workload: Workload, m: Measured) -> float:
    """Aggregate output checks; returns field_err_mm and appends failures."""
    if not m.timed:
        m.failures.append("no timed scan completed")
    if not m.counted:
        m.failures.append("no scan to take the field error from")
        return 0.0
    field_err = statistics.fmean(r["field_err_mm"] for r in m.counted)
    do_nothing = statistics.fmean(r["do_nothing_err_mm"] for r in m.counted)
    if not field_err < workload.field_err_ceiling_mm:
        m.failures.append(
            f"field_err_mm {field_err:.3f} >= ceiling {workload.field_err_ceiling_mm}"
        )
    if workload.beats_do_nothing and not field_err < do_nothing:
        m.failures.append(f"field_err_mm {field_err:.3f} >= do-nothing {do_nothing:.3f}")
    return field_err


def layer_ledger(workload, m: Measured, inputs: Inputs, traced, recorder, root) -> dict:
    layer = ledger.scan_ledger(m.scan_rows, m.counted, m.session)
    layer.update(ledger.serving_ledger(m.serve_run, workload.workers))
    if workload.kind == "session":
        layer["core.preop_build_s"] = statistics.median(s["preop_build_s"] for s in m.setups)
        layer["core.first_scan_s"] = statistics.median(
            s["first_scan"]["latency_s"] for s in m.setups
        )
    else:
        # Every served single-scan case is a session's first scan.
        layer["core.preop_build_s"] = statistics.median(r["preop_build_s"] for r in m.scan_rows)
        layer["core.first_scan_s"] = layer["core.scan_s"]
    if traced:
        from probes import run_probes

        layer.update(run_probes(m.session, m.probe_scan, recorder, root, m.serve_run is not None))
        warm = [r["iterations"] for r in m.scan_rows if r["warm_started"] and r["iterations"]]
        cold = layer["solver.cold_iterations"]
        layer["solver.warm_start_saved_share"] = (
            1.0 - percentile(warm, 50) / cold if warm and cold else 0.0
        )
    layer.update(
        {
            "result_mismatch_share": m.mismatched / m.verified if m.verified else 0.0,
            "resilience.degraded_scans": float(
                sum(1 for r in m.checked if any("degraded" in f for f in r["failures"]))
            ),
            "obs.harness_trace_overhead_share": ledger.trace_overhead_share(m.timed),
            "harness.generator_late_s_max": (
                max((r["late_s"] for r in m.timed), default=0.0) if workload.paced else 0.0
            ),
            "harness.inputs_s": inputs.seconds,
            "harness.verified_cases": float(m.verified),
        }
    )
    return layer


def peak_rss_mb(m: Measured) -> float:
    """Max RSS of this process, plus the workers' on a serve workload."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + (m.serve_run["workers_rss_mb"] if m.serve_run else 0.0)


def run_workload(name: str, seed: int, seconds: float, scale: float, traced: bool) -> int:
    """Generate inputs, run, check, write the record; prints its path as JSON."""
    from repro.backend import get_backend

    workload = WORKLOADS[name]
    timed_seconds = seconds * scale
    # A traced run reports no setup_s: it sets up once and spends the time
    # on probes instead. Scaled-down (unofficial) runs set up once too.
    setup_repeats = workload.setup_repeats if scale >= 1.0 and not traced else 1
    scratch = OUT_DIR / f"tmp-{workload.name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    recorder = SpanRecorder(enabled=traced)
    t_run = time.perf_counter()
    root = recorder.add("workload", t_run, t_run, None, scan=workload.name)

    if workload.kind == "session":
        n_patients = 1
    elif workload.new_patients:
        n_patients = workload.rooms * (1 + workload.new_patients_per_room)
    else:
        n_patients = workload.rooms
    inputs = make_inputs(workload, seed, n_patients)

    try:
        if workload.kind == "session":
            m = measure_session(workload, inputs, timed_seconds, setup_repeats, recorder, root)
        else:
            m = measure_serve(
                workload, inputs, timed_seconds, setup_repeats, recorder, root, scratch
            )
        field_err = accuracy_checks(workload, m)
        layer = layer_ledger(workload, m, inputs, traced, recorder, root)
    finally:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(timeout=2.0)
        shutil.rmtree(scratch, ignore_errors=True)

    bad_rows = [r for r in m.checked if r["failures"]]
    attempted = len(m.checked)
    failed = len(bad_rows) + len(m.failures)
    layer["failed_share"] = failed / max(1, attempted)
    layer["scans_per_s"] = len(m.timed) / m.wall_s if m.wall_s > 0 else 0.0
    layer["harness.machine_slowdown"] = (
        statistics.median(r["slowdown"] for r in m.timed) if m.timed else 0.0
    )
    # Time metrics are in reference-speed seconds (see calibration.py).
    latencies = [r["latency_ref_s"] for r in m.timed]
    e2e = {
        "scan_latency_p50_s": percentile(latencies, 50) if latencies else 0.0,
        "scan_latency_p75_s": percentile(latencies, 75) if latencies else 0.0,
        "setup_s": statistics.median(s["setup_s"] for s in m.setups),
        "field_err_mm": field_err,
        "peak_rss_mb": peak_rss_mb(m),
    }
    if traced:
        recorder.spans[root].end = time.perf_counter()

    benchmark = load_benchmark()
    units = {m_["name"]: m_["unit"] for m_ in benchmark["end_to_end"] + benchmark["per_layer"]}
    record = {
        "provenance": provenance(
            REPO, workload=workload.name, seed=seed, seconds=seconds, scale=scale,
            traced=traced, harness_version=HARNESS_VERSION, backend=get_backend().name,
        ),
        "inputs_sha": inputs.sha,
        "why": workload.why,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": m.failures
        + [f"{r.get('case_id', r['scan_id'])}: {r['failures']}" for r in bad_rows],
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "per_layer": {k: {"value": float(v), "unit": units.get(k, "")} for k, v in layer.items()},
        "samples": {
            "scan_latency_s": summarize(latencies) | {"values": latencies},
            "scan_latency_wall_s": [r["latency_s"] for r in m.timed],
            "slowdown": [r["slowdown"] for r in m.timed],
            "setup_s": [s["setup_s"] for s in m.setups],
            "setup_wall_s": [s["setup_wall_s"] for s in m.setups],
            "deterministic_scans": len(m.counted),
            "iterations": [r["iterations"] for r in m.counted],
        },
    }
    if traced:
        missing = sorted({m_["name"] for m_ in benchmark["per_layer"]} - set(layer))
        if missing:
            raise SystemExit(f"per-layer metrics declared but not measured: {missing}")
        record["trace_fold"] = {
            "by_name": fold(recorder.spans),
            "fold_error_share": fold_error_share(
                recorder.spans, lambda s: s.name.startswith(("scan[", "case"))
            ),
        }
        write_trace(
            OUT_DIR / f"{workload.name}.trace.jsonl", recorder.spans,
            record["provenance"], record["per_layer"],
        )
    path = OUT_DIR / f"{workload.name}.seed{seed}.trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": str(path)}))
    return 0 if record["correct"] else 1
