"""Command-line interface.

Usage (after installation)::

    python -m repro.cli pipeline --shape 64 64 48 --shift 6 --out results/
    python -m repro.cli pipeline --trace trace.jsonl --chrome trace.json
    python -m repro.cli pipeline --scans 3 --checkpoint-dir session/
    python -m repro.cli pipeline --resume --checkpoint-dir session/
    python -m repro.cli replay session/
    python -m repro.cli serve --cases 4 --workers 2 --scans 2
    python -m repro.cli serve --cases 4 --chrome trace.json --metrics-json obs.json
    python -m repro.cli serve --listen 127.0.0.1:7777 --shards 2
    python -m repro.cli submit --connect 127.0.0.1:7777 --cases 4
    python -m repro.cli bench-netsoak --json BENCH_netsoak.json
    python -m repro.cli bench-throughput --cases 4 --workers 4 --json BENCH_throughput.json
    python -m repro.cli bench-throughput --obs-dir obs/
    python -m repro.cli obs slo obs/metrics.json
    python -m repro.cli obs flight obs/flight-worker-0.json --last 20
    python -m repro.cli scaling --equations 77511 --machine deep_flow
    python -m repro.cli experiments --fast
    python -m repro.cli predict --shape 56 56 42
    python -m repro.cli trace-report trace.jsonl

Every subcommand drives the public API; the CLI exists so the pipeline
can be exercised without writing Python.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import IntraoperativePipeline
from repro.imaging.phantom import _phantom_case, make_neurosurgery_case
from repro.machines.spec import DEEP_FLOW, ULTRA80_CLUSTER, ULTRA_HPC_6000

MACHINES = {
    "deep_flow": DEEP_FLOW,
    "ultra_hpc_6000": ULTRA_HPC_6000,
    "ultra80": ULTRA80_CLUSTER,
}


def _add_shape(parser: argparse.ArgumentParser, default=(64, 64, 48)) -> None:
    parser.add_argument(
        "--shape", type=int, nargs=3, default=list(default), metavar=("NX", "NY", "NZ")
    )
    parser.add_argument("--seed", type=int, default=0)


def cmd_pipeline(args: argparse.Namespace) -> int:
    """Run the full intraoperative pipeline on a phantom case."""
    from repro.core.session import SurgicalSession
    from repro.obs import (
        Tracer,
        render_report,
        use_tracer,
        write_chrome_trace,
        write_jsonl,
    )

    machine = MACHINES[args.machine] if args.machine else None
    tracing = bool(args.trace or args.chrome)
    tracer = Tracer(enabled=tracing)

    if args.resume:
        if not args.checkpoint_dir:
            print("--resume requires --checkpoint-dir", file=sys.stderr)
            return 2
        from repro.persist import SessionStore, config_from_manifest

        # The manifest is authoritative on resume: config and app
        # metadata (shape/shift/seed/scans) come from the checkpoint,
        # so the regenerated inputs match the interrupted run exactly.
        probe = SessionStore.open(args.checkpoint_dir)
        app = probe.manifest.get("app", {})
        shape = app.get("shape", list(args.shape))
        shift = float(app.get("shift", args.shift))
        seed = int(app.get("seed", args.seed))
        total = int(app.get("scans", args.scans))
        config = config_from_manifest(probe.manifest.get("config", {}))
        pipeline = IntraoperativePipeline(
            config, machine=machine, tracer=tracer if tracing else None
        )
        with use_tracer(tracer) if tracing else _no_context():
            session = SurgicalSession.resume(pipeline, args.checkpoint_dir)
            print(f"resumed checkpoint: {session.store.describe()}")
            case = None
            for index in range(session.n_scans, total):
                case = _phantom_case(shape, shift, seed, index, total)
                session.process(case.intraop_mri)
        result = session.latest()
    else:
        total = args.scans
        config = PipelineConfig(mesh_cell_mm=args.cell, n_ranks=args.cpus)
        if args.faults:
            from repro.resilience import FaultPlan

            config.fault_plan = FaultPlan.parse(args.faults, seed=args.seed)
            print(f"fault plan: {config.fault_plan.describe()}")
        if args.max_degradation:
            from repro.resilience import parse_level

            config.resilience.max_degradation = parse_level(args.max_degradation)
        pipeline = IntraoperativePipeline(
            config, machine=machine, tracer=tracer if tracing else None
        )
        app = {
            "shape": list(args.shape),
            "shift": args.shift,
            "seed": args.seed,
            "scans": total,
        }
        with use_tracer(tracer) if tracing else _no_context():
            case = _phantom_case(args.shape, args.shift, args.seed, 0, total)
            session = SurgicalSession.begin(
                pipeline,
                case.preop_mri,
                case.preop_labels,
                checkpoint_dir=args.checkpoint_dir,
                app=app,
            )
            result = session.process(case.intraop_mri)
            for index in range(1, total):
                case = _phantom_case(args.shape, args.shift, args.seed, index, total)
                result = session.process(case.intraop_mri)
    preop = session.preop

    print(result.timeline.as_table("Intraoperative processing timeline"))
    if args.trace:
        print(f"wrote trace: {write_jsonl(tracer, args.trace)}")
    if args.chrome:
        path = write_chrome_trace(tracer, args.chrome)
        print(f"wrote Chrome trace (open in Perfetto / about:tracing): {path}")
    if tracing:
        print()
        print(render_report(tracer, title="Trace report (self/total seconds)"))
    verdict = result.record.verdict()
    print(
        f"budget verdict: {verdict.label} "
        f"(headroom {verdict.headroom_seconds:+.1f} s of {verdict.scan_budget:.0f} s)"
    )
    if result.degradation is not None and (
        result.degradation.degraded or result.degradation.escalated
    ):
        print(f"resilience: {result.degradation.summary()}")
    print()
    print(f"match RMS: rigid {result.match_rigid_rms:.2f} -> simulated {result.match_simulated_rms:.2f}")
    restored = result.record.restored
    if case is not None and not restored:
        err = np.linalg.norm(result.grid_displacement - case.true_forward_mm, axis=-1)
        brain = case.brain_mask()
        print(f"field error (brain): mean {err[brain].mean():.2f} mm, p95 {np.percentile(err[brain], 95):.2f} mm")
    if total > 1 or args.resume:
        print()
        print(session.summary_table())
    if session.store is not None:
        print(f"checkpoint: {session.store.root} ({session.store.describe()})")
    if machine is not None and not restored:
        sim = result.simulation
        print(
            f"virtual biomech time on {machine.name} at {args.cpus} CPUs: "
            f"{sim.total_seconds:.2f} s (init {sim.initialization_seconds:.2f} + "
            f"assembly {sim.assembly_seconds:.2f} + solve {sim.solve_seconds:.2f})"
        )
    if args.out and case is not None and not restored:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        from repro.viz.figures import figure4_panels, figure5_render

        paths = figure4_panels(case, result, out)
        paths["fig5"] = figure5_render(preop.surface, result, out / "fig5.ppm")
        for name, path in paths.items():
            print(f"wrote {name}: {path}")
    return 0


@contextmanager
def _no_context():
    """Placeholder context when tracing is off."""
    yield


def cmd_replay(args: argparse.Namespace) -> int:
    """Deterministically replay a checkpoint and verify its checksums."""
    from repro.persist import replay_session

    report = replay_session(args.checkpoint_dir)
    print(report.render())
    return 0 if report.ok else 1


def cmd_trace_report(args: argparse.Namespace) -> int:
    """Render the span tree of a JSONL trace with self/total times."""
    from repro.obs import read_jsonl, render_report

    spans = read_jsonl(args.path)
    print(
        render_report(
            spans,
            title=f"Trace report: {args.path} ({len(spans)} spans)",
            min_seconds=args.min_seconds,
        )
    )
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    """Regenerate a Fig. 7/8-style scaling table."""
    from repro.experiments.common import build_clinical_system
    from repro.experiments.fig7 import report_from_points, scaling_sweep

    machine = MACHINES[args.machine]
    system = build_clinical_system(
        target_equations=args.equations, shape=(96, 96, 72), seed=args.seed
    )
    cpu_counts = tuple(args.cpus) if args.cpus else tuple(
        sorted({1, 2, 4, 8, machine.max_cpus})
    )
    points = scaling_sweep(system, machine, cpu_counts)
    report = report_from_points(
        points, "Scaling", f"{system.n_dof} equations on {machine.name}"
    )
    print(report.table())
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    """Regenerate every paper exhibit and write EXPERIMENTS.md."""
    from repro.experiments.runner import generate

    path = generate(fast=args.fast, out_path=Path(args.out) if args.out else None)
    print(f"wrote {path}")
    return 0


def _parse_hostport(text: str) -> tuple[str, int]:
    """Split ``HOST:PORT`` (HOST may be empty for all interfaces)."""
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {text!r}")
    return host or "0.0.0.0", int(port)


def _write_metrics(metrics, path: Path) -> None:
    """Write a registry's snapshot to ``path`` and Prometheus text beside it.

    The snapshot is what ``repro obs metrics`` / ``repro obs slo`` read:
    the SLO table is derived from its histograms, not stored.
    """
    import json

    from repro.obs import write_prometheus

    path.write_text(json.dumps(metrics.snapshot(), indent=2) + "\n")
    print(f"wrote metrics snapshot: {path}")
    prom = path.with_suffix(".prom")
    print(f"wrote Prometheus exposition: {write_prometheus(metrics, prom)}")


def _write_obs_bundle(loop, obs: Path) -> None:
    """Write a serving loop's ``--obs-dir`` bundle under ``obs``.

    The merged multi-process trace (``trace.json``), the metrics
    (``metrics.json`` + ``metrics.prom``) and a copy of every
    flight-recorder ring (``flight-<name>.json``).
    """
    import shutil

    from repro.obs import write_chrome_trace

    obs.mkdir(parents=True, exist_ok=True)
    print(f"wrote merged trace: {write_chrome_trace(loop.tracer, obs / 'trace.json')}")
    _write_metrics(loop.metrics, obs / "metrics.json")
    if loop.flight_dir and Path(loop.flight_dir).is_dir():
        for dump in sorted(Path(loop.flight_dir).glob("*.json")):
            shutil.copy2(dump, obs / f"flight-{dump.name}")
            print(f"wrote flight dump: {obs / f'flight-{dump.name}'}")


def _phantom_requests(args: argparse.Namespace) -> list:
    """The ``serve`` / ``submit`` case load: ``--cases`` over ``--patients``.

    Same-patient cases exercise the preop-model cache, distinct patients
    scheduling; with ``--checkpoint-root`` every case is durable.
    """
    from repro.serving.soak import make_soak_requests

    return make_soak_requests(
        args.cases, args.scans, args.shape, args.cell, args.patients, args.seed,
        checkpoint_root=args.checkpoint_root, shift_mm=args.shift, deadline_s=args.deadline,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve concurrent phantom surgical cases through a worker pool."""
    from repro.obs import write_chrome_trace
    from repro.obs.metrics import MetricsRegistry
    from repro.serving import SessionServer, ShardGateway
    from repro.serving.soak import run_wave

    if args.listen:
        return _serve_listen(args)
    metrics = MetricsRegistry()
    telemetry = not args.no_telemetry
    # One loop either way (SessionServer is its one-shard configuration):
    # --shards picks the fleet shape and, at 0, the single-host policy.
    kwargs = dict(
        queue_capacity=args.queue_capacity,
        policy=args.policy,
        max_attempts=args.max_attempts,
        metrics=metrics,
        telemetry=telemetry,
        flight_dir=args.flight_dir,
    )
    if args.shards > 0:
        # Sharded tier: a consistent-hash gateway fronting args.shards
        # independent pools of args.workers each; --faults injects the
        # chaos schedule by gateway dispatch ordinal.
        from repro.resilience import ServingFaultPlan

        loop = ShardGateway
        kwargs.update(
            n_shards=args.shards,
            workers_per_shard=args.workers,
            serving_faults=(
                ServingFaultPlan.parse(args.faults) if args.faults else None
            ),
        )
    else:
        loop = SessionServer
        kwargs.update(n_workers=args.workers)
    server = loop(**kwargs)
    try:
        requests = _phantom_requests(args)
        admitted, _ = run_wave(server, requests)
        for request in requests:
            if request.case_id not in admitted:
                print(f"rejected {request.case_id}: {server.results[request.case_id].detail}")
        print(server.summary_table())
        if telemetry:
            if args.chrome:
                path = write_chrome_trace(server.tracer, args.chrome)
                print(f"wrote merged Chrome trace (one lane per process): {path}")
            if args.metrics_json:
                _write_metrics(metrics, Path(args.metrics_json))
            print(f"flight recorder dumps: {server.flight_dir}")
        completed = sum(1 for r in server.results.values() if r.ok)
        return 0 if completed == args.cases else 1
    finally:
        server.shutdown()


def _serve_listen(args: argparse.Namespace) -> int:
    """The ``serve --listen HOST:PORT`` path: a network front-end.

    Binds an asyncio listener speaking the checksummed frame protocol
    in front of a sharded gateway and serves until SIGTERM/SIGINT,
    which triggers a clean drain (pending cases finish or checkpoint,
    stragglers evict, the listener closes). Submit cases from another
    terminal with ``repro submit --connect HOST:PORT``.
    """
    from repro.resilience import ServingFaultPlan
    from repro.serving import NetworkFrontEnd, ShardGateway

    host, port = _parse_hostport(args.listen)
    gateway = ShardGateway(
        n_shards=max(1, args.shards),
        workers_per_shard=args.workers,
        queue_capacity=args.queue_capacity,
        policy=args.policy,
        max_attempts=args.max_attempts,
        serving_faults=(
            ServingFaultPlan.parse(args.faults) if args.faults else None
        ),
        telemetry=not args.no_telemetry,
        flight_dir=args.flight_dir,
    )
    frontend = NetworkFrontEnd(
        gateway,
        host=host,
        port=port,
        wire_faults=(
            ServingFaultPlan.parse(args.wire_faults)
            if args.wire_faults
            else None
        ),
    )
    try:
        print(
            f"serving {max(1, args.shards)} shard(s) x {args.workers} "
            f"worker(s) on {host}:{port} (SIGTERM/Ctrl-C drains)"
        )
        frontend.run_forever()
        metrics = gateway.metrics
        print(
            f"drained: {int(metrics.value('net.submits'))} submits, "
            f"{int(metrics.value('net.results_sent'))} results sent, "
            f"{int(metrics.value('net.duplicates'))} duplicates deduped, "
            f"{int(metrics.value('net.bytes_in'))} B in / "
            f"{int(metrics.value('net.bytes_out'))} B out"
        )
        return 0
    except KeyboardInterrupt:
        return 0
    finally:
        gateway.shutdown()


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit phantom cases to a remote ``repro serve --listen`` server."""
    from repro.serving import NetClient, NetError

    host, port = _parse_hostport(args.connect)
    client = NetClient(host or "127.0.0.1", port)
    try:
        pong = client.ping(probe="ready")
        print(
            f"server {host}:{port} live={pong.get('live')} "
            f"ready={pong.get('ready')} ({pong.get('reason')})"
        )
        for request in _phantom_requests(args):
            try:
                ack = client.submit(request)
            except NetError as exc:
                print(f"refused {request.case_id}: {exc}")
                continue
            print(f"submitted {request.case_id}: {ack.get('detail', 'ok')}")
        results = client.wait(timeout=args.timeout)
        ok = 0
        for case_id in sorted(results):
            result = results[case_id]
            ok += int(result.ok)
            print(f"{case_id}: {result.status} ({result.detail})")
        metrics = client.metrics
        print(
            f"client: {int(metrics.value('net.client.retries'))} retries, "
            f"{int(metrics.value('net.client.reconnects'))} reconnects, "
            f"{client.breaker.trips} breaker trips, "
            f"{int(metrics.value('net.client.bytes_sent'))} B up / "
            f"{int(metrics.value('net.client.bytes_received'))} B down"
        )
        return 0 if ok == args.cases else 1
    except NetError as exc:
        print(f"error: {exc}")
        return 1
    finally:
        client.close()


def cmd_bench_netsoak(args: argparse.Namespace) -> int:
    """Chaos-soak the serving tier through the network path."""
    from repro.serving.soak import (
        DEFAULT_NET_GATEWAY_FAULTS,
        DEFAULT_WIRE_FAULTS,
        run_net_soak,
    )

    return _soak_verb(
        args,
        run_net_soak,
        "repro-netsoak-ckpt-",
        faults=_schedule(args.faults, DEFAULT_NET_GATEWAY_FAULTS),
        wire_faults=_schedule(args.wire_faults, DEFAULT_WIRE_FAULTS),
    )


def _schedule(text: str | None, default: str) -> str | None:
    """A fault-schedule flag: unset takes ``default``, ``''`` injects nothing."""
    return (default if text is None else text) or None


def _print_report(report, json_path: str | None) -> None:
    """Print a driver report's table; write its JSON to ``json_path`` if set."""
    import json

    print(report.table())
    if json_path:
        path = Path(json_path)
        path.write_text(json.dumps(report.as_dict(), indent=2) + "\n")
        print(f"wrote {path}")


def _soak_verb(args: argparse.Namespace, run, prefix: str, **kwargs) -> int:
    """Run one soak driver with the flags both soak verbs share.

    Journals durable cases under ``--checkpoint-root`` (default: a temp
    directory named ``prefix*``), prints the table, writes ``--json`` and
    ``--obs-dir``, and exits 1 on a lost, unterminated or double-solved case.
    """
    import tempfile

    sink: list = []
    kwargs.update(
        n_cases=args.cases,
        n_shards=args.shards,
        workers_per_shard=args.workers,
        scans_per_case=args.scans,
        shape=tuple(args.shape),
        mesh_cell_mm=args.cell,
        n_patients=args.patients,
        queue_capacity=args.queue_capacity,
        durable_every=args.durable_every,
        max_attempts=args.max_attempts,
        seed=args.seed,
        gateway_sink=sink,
    )
    if args.checkpoint_root:
        report = run(checkpoint_root=args.checkpoint_root, **kwargs)
    else:
        with tempfile.TemporaryDirectory(prefix=prefix) as root:
            report = run(checkpoint_root=root, **kwargs)
    _print_report(report, args.json)
    if getattr(args, "obs_dir", None) and sink:
        _write_obs_bundle(sink[-1], Path(args.obs_dir))
    healthy = (
        not report.lost_cases
        and not report.unterminated_cases
        and not report.net.get("double_solved")
    )
    return 0 if healthy else 1


def cmd_bench_throughput(args: argparse.Namespace) -> int:
    """Benchmark pool serving against serial sessions (same patient)."""
    from repro.serving import run_throughput_benchmark

    sink: list = []
    report = run_throughput_benchmark(
        n_cases=args.cases,
        n_workers=args.workers,
        scans_per_case=args.scans,
        shape=tuple(args.shape),
        mesh_cell_mm=args.cell,
        shift_mm=args.shift,
        seed=args.seed,
        telemetry=bool(args.obs_dir),
        server_sink=sink,
    )
    _print_report(report, args.json)
    if args.obs_dir and sink:
        # The telemetry-enabled pool run's observability bundle.
        from repro.obs import render_slo_summary, slo_summary

        server = sink[-1]
        _write_obs_bundle(server, Path(args.obs_dir))
        print()
        print(render_slo_summary(slo_summary(server.metrics)))
    return 0 if report.bit_identical else 1


def cmd_bench_soak(args: argparse.Namespace) -> int:
    """Chaos-soak the sharded tier: sustained load + injected faults."""
    from repro.serving.soak import DEFAULT_FAULTS, run_soak

    return _soak_verb(
        args,
        run_soak,
        "repro-soak-ckpt-",
        waves=args.waves,
        faults=_schedule(args.faults, DEFAULT_FAULTS),
    )


def cmd_obs(args: argparse.Namespace) -> int:
    """Inspect serving observability artifacts: metrics, SLOs, flight dumps."""
    import json

    if args.obs_command == "flight":
        from repro.obs import load_flight_dump, render_flight_dump
        from repro.util.errors import ValidationError

        root = Path(args.path)
        if root.is_dir():
            # Bundles mix flight dumps with trace.json / metrics.json;
            # skip whatever doesn't validate instead of dying on it.
            dumps = []
            for p in sorted(root.glob("*.json")):
                try:
                    dumps.append(load_flight_dump(p))
                except ValidationError:
                    continue
            if not dumps:
                print(f"no flight dumps under {args.path}", file=sys.stderr)
                return 1
        else:
            try:
                dumps = [load_flight_dump(root)]
            except (OSError, ValidationError) as exc:
                print(str(exc), file=sys.stderr)
                return 1
        for dump in dumps:
            print(render_flight_dump(dump, last=args.last))
            print()
        return 0

    # metrics / slo read the metrics snapshot written by `serve
    # --metrics-json` or `--obs-dir` (older bundles nest it under
    # "metrics"); the SLO table is derived from its histograms.
    from repro.obs import (
        MetricsRegistry,
        prometheus_text,
        render_slo_summary,
        slo_summary,
    )

    path = Path(args.path)
    if path.is_dir():
        path = path / "metrics.json"
    payload = json.loads(path.read_text())
    registry = MetricsRegistry()
    registry.merge(payload.get("metrics", payload))
    if args.obs_command == "metrics":
        print(prometheus_text(registry), end="")
        return 0
    if args.obs_command == "slo":
        summary = slo_summary(registry)
        if not summary["series"]:
            print(f"{path}: no latency samples in bundle", file=sys.stderr)
            return 1
        print(render_slo_summary(summary))
        return 0
    raise AssertionError(f"unknown obs subcommand {args.obs_command!r}")


def cmd_predict(args: argparse.Namespace) -> int:
    """Predict gravity-driven brain shift on a phantom."""
    from repro.core.prediction import predict_gravity_shift
    from repro.fem.material import BRAIN_HETEROGENEOUS, BRAIN_HOMOGENEOUS
    from repro.mesh.generator import mesh_labeled_volume
    from repro.imaging.phantom import Tissue

    case = make_neurosurgery_case(shape=tuple(args.shape), seed=args.seed)
    labels = (
        int(Tissue.BRAIN),
        int(Tissue.VENTRICLE),
        int(Tissue.FALX),
        int(Tissue.TUMOR),
    )
    mesher = mesh_labeled_volume(case.preop_labels, args.cell, labels)
    gravity = -case.craniotomy_center / np.linalg.norm(case.craniotomy_center)
    materials = BRAIN_HETEROGENEOUS if args.heterogeneous else BRAIN_HOMOGENEOUS
    pred = predict_gravity_shift(
        mesher.mesh, materials, gravity_direction=gravity, buoyancy_fraction=args.buoyancy
    )
    mags = np.linalg.norm(pred.displacement, axis=1)
    print(
        f"predicted sag: peak {pred.peak_mm:.2f} mm, p90 {np.percentile(mags, 90):.2f} mm "
        f"({mesher.mesh.n_nodes} nodes, {'heterogeneous' if args.heterogeneous else 'homogeneous'} model)"
    )
    return 0


def _add_soak_flags(
    parser: argparse.ArgumentParser, queue_capacity: int, faults_help: str
) -> None:
    """The flags ``bench-soak`` and ``bench-netsoak`` share."""
    _add_shape(parser, default=(24, 24, 16))
    parser.add_argument("--cases", type=int, default=8)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--workers", type=int, default=1, help="workers per shard")
    parser.add_argument("--scans", type=int, default=1, help="scans per case")
    parser.add_argument("--cell", type=float, default=8.0, help="mesh cell size (mm)")
    parser.add_argument("--patients", type=int, default=2)
    parser.add_argument("--queue-capacity", type=int, default=queue_capacity)
    parser.add_argument(
        "--durable-every",
        type=int,
        default=2,
        help="journal every Nth case (durable-case loss is the audit's red line)",
    )
    parser.add_argument(
        "--checkpoint-root",
        default=None,
        help="root for durable-case journals (default: a temp directory)",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="re-admission budget per case after worker/shard failures",
    )
    parser.add_argument("--faults", default=None, help=faults_help)
    parser.add_argument("--json", default=None, help="write the soak report as JSON here")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    from repro.backend import available_backends

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help=(
            "compute backend for the solver's mat-vec and block-preconditioner "
            "kernels (default: auto-detect: numba if importable, else numpy)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", help=cmd_pipeline.__doc__)
    _add_shape(p)
    p.add_argument("--shift", type=float, default=6.0, help="peak brain shift (mm)")
    p.add_argument("--cell", type=float, default=5.0, help="mesh cell size (mm)")
    p.add_argument("--cpus", type=int, default=8)
    p.add_argument("--machine", choices=sorted(MACHINES), default="deep_flow")
    p.add_argument("--out", default=None, help="directory for figure panels")
    p.add_argument("--trace", default=None, help="write a JSONL trace to this path")
    p.add_argument(
        "--faults",
        default=None,
        help=(
            "deterministic fault plan, e.g. "
            "'0:stall-rank=1;0:kill-rank=1;0:scan-nan=0.1' "
            "(SCAN:KIND[=PARAM] entries separated by ';')"
        ),
    )
    p.add_argument(
        "--max-degradation",
        default=None,
        choices=["full-fem", "coarse-fem", "previous-field", "rigid-only"],
        help="deepest graceful-degradation level the pipeline may take",
    )
    p.add_argument(
        "--chrome", default=None, help="write a Chrome trace_event JSON to this path"
    )
    p.add_argument(
        "--scans",
        type=int,
        default=1,
        help="number of intraoperative scans in the session (default 1)",
    )
    p.add_argument(
        "--checkpoint-dir",
        default=None,
        help="make the session durable: journal + checkpoint into this directory",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help=(
            "recover an interrupted session from --checkpoint-dir and process "
            "its remaining scans (config/inputs come from the manifest; "
            "--faults etc. are ignored)"
        ),
    )
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("scaling", help=cmd_scaling.__doc__)
    p.add_argument("--equations", type=int, default=77511)
    p.add_argument("--machine", choices=sorted(MACHINES), default="deep_flow")
    p.add_argument("--cpus", type=int, nargs="*", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("experiments", help=cmd_experiments.__doc__)
    p.add_argument("--fast", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiments)

    p = sub.add_parser("predict", help=cmd_predict.__doc__)
    _add_shape(p, default=(56, 56, 42))
    p.add_argument("--cell", type=float, default=5.5)
    p.add_argument("--buoyancy", type=float, default=0.85)
    p.add_argument("--heterogeneous", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("serve", help=cmd_serve.__doc__)
    _add_shape(p, default=(32, 32, 24))
    p.add_argument("--cases", type=int, default=4, help="cases to submit")
    p.add_argument(
        "--patients",
        type=int,
        default=1,
        help="distinct patients among the cases (1 = all share one preop model)",
    )
    p.add_argument("--scans", type=int, default=1, help="scans per case")
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        help=(
            "front a consistent-hash gateway over this many shards; "
            "--workers is then per shard (0 = the single-pool server: the "
            "same control loop with one shard and no shedding, so it "
            "answers health() probes too)"
        ),
    )
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--policy", choices=["fifo", "deadline"], default="fifo")
    p.add_argument("--queue-capacity", type=int, default=16)
    p.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="re-admission budget per case after worker/shard failures",
    )
    p.add_argument(
        "--faults",
        default=None,
        help=(
            "serving chaos schedule, e.g. '2:kill-shard=0,3:drop-result=1' "
            "(requires --shards)"
        ),
    )
    p.add_argument("--shift", type=float, default=5.0)
    p.add_argument("--cell", type=float, default=5.0, help="mesh cell size (mm)")
    p.add_argument(
        "--deadline", type=float, default=None, help="per-case deadline (s)"
    )
    p.add_argument(
        "--checkpoint-root",
        default=None,
        help="make cases durable: per-case checkpoint dirs under this root",
    )
    p.add_argument(
        "--no-telemetry",
        action="store_true",
        help="serve dark: no per-case spans, frames, SLOs or flight dumps",
    )
    p.add_argument(
        "--chrome",
        default=None,
        help="write the merged multi-process Chrome trace_event JSON here",
    )
    p.add_argument(
        "--metrics-json",
        default=None,
        help=(
            "write the aggregated metrics snapshot here (`repro obs slo` "
            "derives the SLO table from it; a .prom Prometheus exposition "
            "is written alongside)"
        ),
    )
    p.add_argument(
        "--flight-dir",
        default=None,
        help="directory for flight-recorder dumps (default: a temp directory)",
    )
    p.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help=(
            "serve over the network instead of self-submitting phantom "
            "cases: bind the checksummed-frame listener here and run "
            "until SIGTERM/Ctrl-C drains (submit with 'repro submit')"
        ),
    )
    p.add_argument(
        "--wire-faults",
        default=None,
        help=(
            "wire chaos schedule by submit ordinal for --listen, e.g. "
            "'2:reset-mid-frame,4:partition@0.5'"
        ),
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help=cmd_submit.__doc__)
    _add_shape(p, default=(32, 32, 24))
    p.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of a running 'repro serve --listen' server",
    )
    p.add_argument("--cases", type=int, default=4, help="cases to submit")
    p.add_argument(
        "--patients",
        type=int,
        default=1,
        help="distinct patients among the cases (preop models upload once each)",
    )
    p.add_argument("--scans", type=int, default=1, help="scans per case")
    p.add_argument("--shift", type=float, default=5.0)
    p.add_argument("--cell", type=float, default=5.0, help="mesh cell size (mm)")
    p.add_argument(
        "--deadline", type=float, default=None, help="per-case deadline (s)"
    )
    p.add_argument(
        "--checkpoint-root",
        default=None,
        help=(
            "make cases durable: per-case checkpoint dirs under this root "
            "(a server-side path)"
        ),
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="seconds to wait for all results",
    )
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("bench-throughput", help=cmd_bench_throughput.__doc__)
    _add_shape(p, default=(32, 32, 24))
    p.add_argument("--cases", type=int, default=4)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--scans", type=int, default=1, help="scans per case")
    p.add_argument("--cell", type=float, default=3.0, help="mesh cell size (mm)")
    p.add_argument("--shift", type=float, default=5.0)
    p.add_argument("--json", default=None, help="write the report as JSON here")
    p.add_argument(
        "--obs-dir",
        default=None,
        help=(
            "run the pool leg with telemetry on and write its observability "
            "bundle here (merged trace, metrics, flight dumps)"
        ),
    )
    p.set_defaults(func=cmd_bench_throughput)

    p = sub.add_parser("bench-soak", help=cmd_bench_soak.__doc__)
    _add_soak_flags(
        p,
        queue_capacity=4,
        faults_help=(
            "chaos schedule by dispatch ordinal "
            "(default: hang + slowdown + dropped result + shard kill; '' = none)"
        ),
    )
    p.add_argument("--waves", type=int, default=2, help="submission bursts")
    p.add_argument(
        "--obs-dir",
        default=None,
        help=(
            "write the gateway's observability bundle here "
            "(merged trace, metrics, flight dumps)"
        ),
    )
    p.set_defaults(func=cmd_bench_soak)

    p = sub.add_parser("bench-netsoak", help=cmd_bench_netsoak.__doc__)
    _add_soak_flags(
        p,
        queue_capacity=8,
        faults_help=(
            "gateway chaos by dispatch ordinal "
            "(default: a worker hang + a dropped result; '' = none)"
        ),
    )
    p.add_argument(
        "--wire-faults",
        default=None,
        help=(
            "wire chaos by submit ordinal (default: duplicate delivery, "
            "mid-frame reset, truncated frame, delayed ACK, partition; "
            "'' = none)"
        ),
    )
    p.set_defaults(func=cmd_bench_netsoak)

    p = sub.add_parser("obs", help=cmd_obs.__doc__)
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    q = obs_sub.add_parser(
        "metrics", help="render a metrics bundle as Prometheus text exposition"
    )
    q.add_argument("path", help="metrics.json bundle (or a directory holding one)")
    q.set_defaults(func=cmd_obs)
    q = obs_sub.add_parser(
        "slo", help="render the SLO summary table from a metrics bundle"
    )
    q.add_argument("path", help="metrics.json bundle (or a directory holding one)")
    q.set_defaults(func=cmd_obs)
    q = obs_sub.add_parser("flight", help="render flight-recorder dump(s)")
    q.add_argument("path", help="a flight dump JSON, or a directory of dumps")
    q.add_argument(
        "--last", type=int, default=None, help="show only the last N entries"
    )
    q.set_defaults(func=cmd_obs)

    p = sub.add_parser("replay", help=cmd_replay.__doc__)
    p.add_argument("checkpoint_dir", help="checkpoint directory to replay-verify")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("trace-report", help=cmd_trace_report.__doc__)
    p.add_argument("path", help="JSONL trace written by --trace or write_jsonl")
    p.add_argument(
        "--min-seconds",
        type=float,
        default=0.0,
        help="prune spans (and their subtrees) shorter than this",
    )
    p.set_defaults(func=cmd_trace_report)
    return parser


def main(argv=None) -> int:
    """Entry point: parse arguments and dispatch to the subcommand."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "backend", None):
        from repro.backend import set_backend

        set_backend(args.backend)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
