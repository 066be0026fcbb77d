"""Fold one run into the per-layer ledger (names as in BENCHMARK.json).

Sources: [T] ``result.timeline`` entries, [R] public result fields,
[C] exact counts — all gathered per scan by ``session_load.scan_row`` —
and the serving rows' ``CaseResult`` fields. [P] probe timings are merged
in by the caller on traced runs.
"""

from __future__ import annotations

import statistics

from stats import percentile

STAGES = {
    "registration.rigid_s": "rigid registration",
    "segmentation.classify_s": "tissue classification",
    "surface.correspondence_s": "surface displacement",
    "fem.simulate_s": "biomechanical simulation",
    "imaging.resample_s": "visualization resample",
}


def _p50(values) -> float:
    values = list(values)
    return percentile(values, 50) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def scan_ledger(rows: list[dict], counted: list[dict], session) -> dict:
    """Pipeline-layer metrics from scan rows.

    ``rows`` feed the timings; ``counted`` (the deterministic prefix)
    feeds counts that must repeat exactly for a seed.
    """
    out = {}
    for name, stage in STAGES.items():
        out[name] = _p50(r["stages"].get(stage, 0.0) for r in rows)
    out["core.scan_s"] = _p50(r["latency_s"] for r in rows)
    out["core.unstaged_s"] = _p50(r["latency_s"] - sum(r["stages"].values()) for r in rows)
    evaluations = _p50(r["mi_evaluations"] for r in counted)
    out["registration.mi_evaluations"] = evaluations
    out["registration.s_per_evaluation"] = (
        out["registration.rigid_s"] / evaluations if evaluations else 0.0
    )
    iterations = _p50(r["iterations"] for r in counted)
    out["solver.iterations_p50"] = iterations
    out["solver.restarts_p50"] = _p50(r["restarts"] for r in counted)
    out["solver.s_per_iteration"] = (
        _p50(
            r["stages"].get(STAGES["fem.simulate_s"], 0.0) / r["iterations"]
            for r in rows
            if r["iterations"]
        )
    )
    out["solver.converged_share"] = _mean(1.0 if r["converged"] else 0.0 for r in rows)
    out["fem.cache_hit_share"] = _mean(1.0 if r["cache_hit"] else 0.0 for r in rows)
    out["segmentation.dice_brain"] = _mean(r["dice_brain"] for r in counted)
    out["segmentation.prototypes"] = float(counted[0]["n_prototypes"]) if counted else 0.0

    preop = session.preop
    mesh = preop.mesher.mesh
    voxels = float(preop.mri.data.size)
    out["segmentation.voxels"] = voxels
    out["imaging.voxels"] = voxels
    out["segmentation.voxels_per_s"] = (
        voxels / out["segmentation.classify_s"] if out["segmentation.classify_s"] else 0.0
    )
    out["surface.vertices"] = float(preop.surface.n_vertices)
    out["mesh.nodes"] = float(mesh.n_nodes)
    out["mesh.elements"] = float(mesh.n_elements)
    out["fem.equations"] = float(mesh.n_dof)
    out["fem.free_equations"] = float(session.latest().simulation.n_equations)
    out["parallel.ranks"] = float(session.pipeline.config.n_ranks)
    return out


SERVING_NAMES = (
    "serving.queue_wait_s_p50", "serving.queue_wait_s_mean", "serving.service_s_p50",
    "serving.preop_build_s_p50", "serving.preop_cache_hit_share", "serving.attempts_mean",
    "serving.overhead_s_p50", "serving.submit_ack_s_p50", "serving.bytes_sent_per_case",
    "serving.bytes_received_per_case", "serving.preop_uploads", "serving.retries",
    "serving.worker_busy_share", "serving.start_s", "resilience.shed_cases",
)


def serving_ledger(run: dict | None, workers: int) -> dict:
    """Serving-layer metrics from case rows; all zero on session workloads."""
    if run is None:
        return dict.fromkeys(SERVING_NAMES, 0.0)
    rows = [r for r in run["rows"] if r.get("result")]
    results = [r["result"] for r in rows]
    clients = run["client_metrics"]
    n_cases = max(1, sum(int(c.get("net.client.results", 0)) for c in clients))
    total = lambda key: float(sum(c.get(key, 0) for c in clients))  # noqa: E731
    return {
        "serving.queue_wait_s_p50": _p50(r["queue_seconds"] for r in results),
        "serving.queue_wait_s_mean": _mean(r["queue_seconds"] for r in results),
        "serving.service_s_p50": _p50(r["service_seconds"] for r in results),
        "serving.preop_build_s_p50": _p50(r["preop_seconds"] for r in results),
        "serving.preop_cache_hit_share": _mean(
            1.0 if r["preop_cache_hit"] else 0.0 for r in results
        ),
        "serving.attempts_mean": _mean(r["attempts"] for r in results),
        "serving.overhead_s_p50": _p50(
            r["latency_s"] - r["late_s"] - r["result"]["queue_seconds"]
            - r["result"]["service_seconds"]
            for r in rows
        ),
        "serving.submit_ack_s_p50": _p50(r["submit_ack_s"] for r in rows),
        "serving.bytes_sent_per_case": total("net.client.bytes_sent") / n_cases,
        "serving.bytes_received_per_case": total("net.client.bytes_received") / n_cases,
        "serving.preop_uploads": total("net.client.preop_uploads"),
        "serving.retries": total("net.client.retries"),
        "serving.worker_busy_share": (
            sum(r["service_seconds"] for r in results) / (workers * run["wall_s"])
            if run["wall_s"] > 0
            else 0.0
        ),
        "serving.start_s": _p50(s["start_s"] for s in run["setups"]),
        "resilience.shed_cases": float(
            sum(1 for r in results if r["status"] in ("degraded", "rejected", "evicted"))
        ),
    }


def trace_overhead_share(rows: list[dict]) -> float:
    """Traced p50 / untraced p50 - 1 over the interleaved halves of a traced run."""
    traced = [r["latency_s"] for r in rows if r.get("traced")]
    plain = [r["latency_s"] for r in rows if not r.get("traced")]
    if not traced or not plain:
        return 0.0
    return percentile(traced, 50) / percentile(plain, 50) - 1.0
