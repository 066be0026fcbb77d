"""Figure 6: timeline of intraoperative image acquisition and analysis.

Regenerates the paper's stage timeline: the preoperative actions
(segmentation / model building, done before surgery when time is
plentiful) and the per-scan intraoperative sequence (rigid
registration, tissue classification, surface displacement,
biomechanical simulation, visualization resample). Wall-clock is this
machine's; the virtual year-2000 time of the biomechanical stage on the
paper's hardware is reported alongside (Figs. 7-9 cover its scaling).

:func:`run` is the runner's small timeline; :func:`paper_size` is the
same pipeline at the paper's size — the 77 k-equation model on 16
ranks — with every stage beside the paper's envelope. Run it with::

    PYTHONPATH=src python -m repro.experiments.fig6
"""

from __future__ import annotations

import os
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.backend import get_backend
from repro.core.config import PipelineConfig
from repro.core.pipeline import IntraoperativePipeline
from repro.experiments.common import PAPER_SYSTEM_SMALL, ExperimentReport
from repro.imaging.phantom import make_neurosurgery_case
from repro.machines.spec import DEEP_FLOW, MachineSpec
from repro.obs.trace import Tracer, use_tracer
from repro.solver.preconditioner import usable_cores
from repro.util import format_table

#: The paper's own numbers for a stage (Section 3.2): the display
#: resample "requires approximately 0.5 seconds", and the volumetric
#: deformation is simulated "in less than ten seconds" on 16 CPUs.
PAPER_ENVELOPE = {
    "visualization resample": "0.5 s",
    "biomechanical simulation": "< 10 s at 16 CPUs",
}


def run(
    shape: tuple[int, int, int] = (64, 64, 48),
    seed: int = 12,
    machine: MachineSpec | None = DEEP_FLOW,
    n_ranks: int = 16,
    config: PipelineConfig | None = None,
) -> ExperimentReport:
    """Time every pipeline stage on a phantom neurosurgery case."""
    case = make_neurosurgery_case(shape=shape, seed=seed)
    cfg = config if config is not None else PipelineConfig(mesh_cell_mm=5.0)
    cfg.n_ranks = min(n_ranks, machine.max_cpus) if machine else cfg.n_ranks
    pipeline = IntraoperativePipeline(cfg, machine=machine)

    start = time.perf_counter()
    preop = pipeline.prepare_preoperative(case.preop_mri, case.preop_labels)
    build = time.perf_counter() - start
    result = pipeline.process_scan(case.intraop_mri, preop)

    report = ExperimentReport(
        exhibit="Figure 6",
        title="Timeline of image processing for image guided neurosurgery",
        headers=["period", "action", "seconds (this machine)"],
    )
    report.rows.append(["preoperative", "preoperative segmentation + model building", build])
    report.rows.append(["intraoperative", "intraoperative MRI acquisition", "(scanner)"])
    record = result.record
    for stage, seconds, period, _ in record.timeline:
        report.rows.append([period, stage, seconds])
    report.rows.append(["intraoperative", "TOTAL intraoperative processing", record.seconds()])

    sim = record.counts("biomechanical simulation")
    if machine is not None:
        report.notes.append(
            f"biomechanical simulation on {machine.name} with {cfg.n_ranks} CPUs "
            f"(virtual): init {sim['virtual_init_s']:.2f} s + assembly "
            f"{sim['virtual_assembly_s']:.2f} s + solve {sim['virtual_solve_s']:.2f} s"
        )
    disp = np.linalg.norm(result.nodal_displacement, axis=1)
    report.notes.append(
        f"system: {sim['equations']} equations, peak surface displacement {disp.max():.1f} mm"
    )
    report.notes.append(
        "paper ordering preserved: rigid registration -> tissue classification -> "
        "surface displacement -> biomechanical simulation -> visualization"
    )
    report.extra.append(
        result.timeline.as_gantt(title="Intraoperative Gantt (this machine)")
    )
    return report


#: The spans of the solve-context precompute that Fig. 6 lists under it.
SOLVE_CONTEXT_SPANS = (
    "symbolic assembly",
    "numeric assembly",
    "reduction setup",
    "preconditioner setup",
    "coarse space setup",
)


def _commit() -> str:
    """``git describe --always --dirty`` of the source tree, if it is a checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas_threads() -> str:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(name):
            return f"{os.environ[name]} ({name})"
    return "unpinned"


def _descendants(tracer: Tracer, span, name: str) -> list:
    """Every span called ``name`` below ``span``, at any depth."""
    found, pending = [], tracer.children_of(span.span_id)
    while pending:
        child = pending.pop()
        if child.name == name:
            found.append(child)
        pending.extend(tracer.children_of(child.span_id))
    return found


def paper_size(
    shape: tuple[int, int, int] = (96, 96, 72),
    seed: int = 12,
    shifts_mm: tuple[float, float] = (6.0, 9.0),
    target_nodes: int = PAPER_SYSTEM_SMALL // 3,
    n_ranks: int = 16,
    machine: MachineSpec = DEEP_FLOW,
) -> str:
    """Fig. 6 at the paper's size: the model build, then two scans.

    The second scan is the same patient at another peak shift, processed
    as a session's next scan (the first scan's prototypes, its field as
    ``previous``). The build lists its own stages (traced) under its total,
    and under the solve-context stage its :data:`SOLVE_CONTEXT_SPANS`: the
    symbolic and numeric assembly, the Dirichlet elimination's ``reduction
    setup``, the ``preconditioner setup`` (the block FSAI under the coarse
    space, on the threads the header names) and the ``coarse space setup``
    (``K Z`` and the coarse factor).
    Each scan lists every stage, the *unstaged* remainder
    (scan wall time minus the stages), the total, and the biomechanical
    simulation in wall seconds and in ``machine``'s virtual seconds, each
    beside the paper's envelope where it gives one.
    """
    config = PipelineConfig(target_mesh_nodes=target_nodes, n_ranks=n_ranks)
    pipeline = IntraoperativePipeline(config, machine=machine)
    cases = [make_neurosurgery_case(shape=shape, shift_mm=s, seed=seed) for s in shifts_mm]
    tracer = Tracer()
    start = time.perf_counter()
    with use_tracer(tracer):
        preop = pipeline.prepare_preoperative(cases[0].preop_mri, cases[0].preop_labels)
    rows = [["preoperative", "prepare_preoperative", time.perf_counter() - start, "", ""]]
    (build,) = tracer.roots()
    for span in tracer.children_of(build.span_id):
        rows.append(["preoperative", f"  {span.name}", span.duration, "", ""])
        for name in SOLVE_CONTEXT_SPANS:
            for setup in _descendants(tracer, span, name):
                rows.append(["preoperative", f"    {setup.name}", setup.duration, "", ""])
    notes, previous = [], None
    for k, case in enumerate(cases):
        start = time.perf_counter()
        result = pipeline.process_scan(
            case.intraop_mri, preop, scan_index=k, previous=previous,
            prototypes=None if previous is None else previous.prototypes,
        )
        wall = time.perf_counter() - start
        period = f"scan {k + 1} ({case.shift_mm:g} mm)"
        record = result.record
        sim = record.counts("biomechanical simulation")
        split = (sim["virtual_init_s"], sim["virtual_assembly_s"], sim["virtual_solve_s"])
        for stage, seconds, _, _ in record.timeline:
            virtual = sum(split) if stage == "biomechanical simulation" else ""
            rows.append([period, stage, seconds, virtual, PAPER_ENVELOPE.get(stage, "")])
        rows.append([period, "unstaged", wall - record.seconds(), "", ""])
        rows.append([period, "TOTAL", wall, "", ""])
        notes.append(
            f"{period}: virtual init {split[0]:.3f} s + assembly {split[1]:.3f} s + "
            f"solve {split[2]:.3f} s, {sim['iterations']} CG iterations"
        )
        previous = result
    header = [
        f"Figure 6 at the paper's size: commit {_commit()}, backend {get_backend().name}, "
        f"nproc {os.cpu_count()}, BLAS threads {_blas_threads()}, "
        f"block factorization on {min(n_ranks, usable_cores())} threads",
        f"volume {'x'.join(map(str, shape))} ({int(np.prod(shape)):,} voxels), "
        f"{sim['equations']:,} equations ({sim['free_equations']:,} free) on {n_ranks} ranks "
        f"({config.partitioner} partition), virtual seconds on {machine.name}",
    ]
    table = format_table(["period", "stage", "wall (s)", "virtual (s)", "paper"], rows)
    return "\n".join([*header, table, *(f"  note: {n}" for n in notes)])


def main() -> None:
    """``python -m repro.experiments.fig6``: print :func:`paper_size`."""
    print(paper_size())


if __name__ == "__main__":
    main()
