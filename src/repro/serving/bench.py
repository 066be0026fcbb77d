"""Throughput benchmark: concurrent pool serving vs. serial sessions.

The serving layer's claim is aggregate *scan throughput*: N concurrent
cases of the same patient served by a :class:`repro.serving.SessionServer`
finish faster than N serial back-to-back :class:`repro.core.SurgicalSession`
runs, because (a) workers solve in separate processes (GIL-free, scales
with cores) and (b) the checksum-keyed preop cache prepares the patient
model **once** where serial sessions rebuild it per case — meshing,
assembly, Dirichlet elimination and preconditioner factorization are
the dominant per-case fixed cost, so the win holds even on one core.

Correctness is part of the benchmark: every case's displacement-field
checksums from the pool run must equal the serial run's **bit-exactly**
(warm memory is reset between cases sharing a cached model, so reuse is
numerically invisible).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.config import PipelineConfig
from repro.serving.protocol import CaseRequest, outcome_from_result
from repro.util import ValidationError, format_table


@dataclass
class ThroughputReport:
    """Serial-vs-pool comparison for one benchmark run."""

    n_cases: int
    n_workers: int
    scans_per_case: int
    serial_seconds: float
    pool_seconds: float
    bit_identical: bool
    preop_cache_hits: int
    shape: tuple[int, int, int]
    mesh_cell_mm: float
    serial_checksums: dict[str, list[str]] = field(default_factory=dict, repr=False)
    pool_checksums: dict[str, list[str]] = field(default_factory=dict, repr=False)

    @property
    def total_scans(self) -> int:
        return self.n_cases * self.scans_per_case

    @property
    def serial_scans_per_s(self) -> float:
        return self.total_scans / self.serial_seconds

    @property
    def pool_scans_per_s(self) -> float:
        return self.total_scans / self.pool_seconds

    @property
    def speedup(self) -> float:
        """Aggregate-throughput ratio (pool over serial)."""
        return self.serial_seconds / self.pool_seconds

    def as_dict(self) -> dict:
        return {
            "n_cases": self.n_cases,
            "n_workers": self.n_workers,
            "scans_per_case": self.scans_per_case,
            "total_scans": self.total_scans,
            "shape": list(self.shape),
            "mesh_cell_mm": self.mesh_cell_mm,
            "serial_seconds": self.serial_seconds,
            "pool_seconds": self.pool_seconds,
            "serial_scans_per_s": self.serial_scans_per_s,
            "pool_scans_per_s": self.pool_scans_per_s,
            "speedup": self.speedup,
            "bit_identical": self.bit_identical,
            "preop_cache_hits": self.preop_cache_hits,
        }

    def table(self) -> str:
        rows = [
            ["serial sessions", f"{self.serial_seconds:.2f}",
             f"{self.serial_scans_per_s:.3f}", "1.00"],
            [f"{self.n_workers}-worker pool", f"{self.pool_seconds:.2f}",
             f"{self.pool_scans_per_s:.3f}", f"{self.speedup:.2f}"],
        ]
        table = format_table(
            ["configuration", "wall (s)", "scans/s", "speedup"],
            rows,
            title=(
                f"Serving throughput: {self.n_cases} cases x "
                f"{self.scans_per_case} scan(s), same patient"
            ),
        )
        table += (
            f"\n  bit-identical displacement fields: {self.bit_identical}"
            f" | preop cache hits: {self.preop_cache_hits}/{self.n_cases - 1} possible"
        )
        return table


def make_case_requests(
    n_cases: int,
    scans_per_case: int,
    shape: tuple[int, int, int],
    shift_mm: float,
    seed: int,
    config: PipelineConfig,
) -> list[CaseRequest]:
    """N cases of one patient: shared preop volumes, distinct scan sets."""
    from repro.imaging.phantom import make_neurosurgery_case

    base = make_neurosurgery_case(shape=tuple(shape), shift_mm=shift_mm, seed=seed)
    requests = []
    for case in range(n_cases):
        scans = []
        for scan in range(scans_per_case):
            fraction = (scan + 1) / scans_per_case
            varied = make_neurosurgery_case(
                shape=tuple(shape),
                shift_mm=shift_mm * fraction,
                seed=seed + 1 + case * scans_per_case + scan,
            )
            scans.append(varied.intraop_mri)
        requests.append(
            CaseRequest(
                case_id=f"case-{case:02d}",
                preop_mri=base.preop_mri,
                preop_labels=base.preop_labels,
                scans=scans,
                config=config,
            )
        )
    return requests


def run_serial(requests: list[CaseRequest]) -> tuple[float, dict[str, list[str]]]:
    """Back-to-back sessions, one per case; returns (seconds, checksums)."""
    from repro.core.pipeline import IntraoperativePipeline
    from repro.core.session import SurgicalSession

    checksums: dict[str, list[str]] = {}
    t0 = time.perf_counter()
    for request in requests:
        pipeline = IntraoperativePipeline(
            config=request.config if request.config is not None else PipelineConfig()
        )
        session = SurgicalSession.begin(
            pipeline, request.preop_mri, request.preop_labels
        )
        shas = []
        for index, scan in enumerate(request.scans):
            result = session.process(scan)
            shas.append(outcome_from_result(index, result).nodal_sha)
        checksums[request.case_id] = shas
    return time.perf_counter() - t0, checksums


def run_pool(
    requests: list[CaseRequest],
    n_workers: int,
    metrics=None,
    policy: str = "fifo",
    telemetry: bool = False,
    server_sink: list | None = None,
) -> tuple[float, dict[str, list[str]], int]:
    """Serve all cases through a worker pool.

    Returns ``(seconds, checksums, preop_cache_hits)``. Worker spawn is
    excluded from the timing (a server is long-lived; admission-to-last-
    result is the serving latency), submission and scheduling are not.
    ``telemetry`` turns the full cross-process telemetry path on
    (defaults off so the headline throughput number measures serving,
    not instrumentation); passing a ``server_sink`` list appends the
    server before shutdown so callers can export its trace/SLOs.
    """
    from repro.serving.server import SessionServer

    server = SessionServer(
        n_workers=n_workers,
        queue_capacity=max(len(requests), 1),
        policy=policy,
        metrics=metrics,
        telemetry=telemetry,
    )
    if server_sink is not None:
        server_sink.append(server)
    try:
        t0 = time.perf_counter()
        for request in requests:
            rejected = server.submit(request)
            if rejected is not None:
                raise ValidationError(
                    f"benchmark case {request.case_id!r} rejected: {rejected.detail}"
                )
        results = server.run()
        elapsed = time.perf_counter() - t0
        checksums = {}
        hits = 0
        for request in requests:
            result = results[request.case_id]
            if not result.ok:
                raise ValidationError(
                    f"benchmark case {request.case_id!r} ended "
                    f"{result.status}: {result.detail}"
                )
            checksums[request.case_id] = [s.nodal_sha for s in result.scans]
            hits += int(result.preop_cache_hit)
    finally:
        server.shutdown()
    return elapsed, checksums, hits


def run_throughput_benchmark(
    n_cases: int = 4,
    n_workers: int = 4,
    scans_per_case: int = 1,
    shape: tuple[int, int, int] = (32, 32, 24),
    mesh_cell_mm: float = 3.0,
    shift_mm: float = 5.0,
    seed: int = 7,
    metrics=None,
    telemetry: bool = False,
    server_sink: list | None = None,
) -> ThroughputReport:
    """Measure pool-vs-serial throughput on one patient's concurrent cases.

    The default sizing (coarse image grid, 3 mm mesh) makes the
    preoperative build the dominant fixed cost — the clinically faithful
    regime (the paper precomputes preoperatively *because* that work is
    heavy) — so the preop-cache architecture, not core count, carries
    the speedup and the benchmark is meaningful on small CI machines.
    """
    config = PipelineConfig(mesh_cell_mm=mesh_cell_mm)
    requests = make_case_requests(
        n_cases, scans_per_case, shape, shift_mm, seed, config
    )
    serial_seconds, serial_checksums = run_serial(requests)
    pool_seconds, pool_checksums, hits = run_pool(
        requests,
        n_workers,
        metrics=metrics,
        telemetry=telemetry,
        server_sink=server_sink,
    )
    bit_identical = serial_checksums == pool_checksums
    return ThroughputReport(
        n_cases=n_cases,
        n_workers=n_workers,
        scans_per_case=scans_per_case,
        serial_seconds=serial_seconds,
        pool_seconds=pool_seconds,
        bit_identical=bit_identical,
        preop_cache_hits=hits,
        shape=tuple(shape),
        mesh_cell_mm=mesh_cell_mm,
        serial_checksums=serial_checksums,
        pool_checksums=pool_checksums,
    )
