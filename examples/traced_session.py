#!/usr/bin/env python
"""A fully-instrumented surgical session: tracing, metrics, time budget.

The paper's pipeline is a latency budget in disguise — "the simulation
of the volumetric brain deformation ... was achieved in less than 10
seconds", inside a few-minute window while the surgeon waits. This
example runs a 3-scan session with every observability hook attached:

* a :class:`repro.obs.Tracer` records the hierarchical span tree
  (scan -> pipeline stage -> FEM/solver internals, with per-restart
  GMRES residual events);
* a :class:`repro.obs.MetricsRegistry` absorbs the solver convergence
  records and the solve-context cache counters;
* every scan's record carries its verdict against the paper-derived
  time budget (:meth:`repro.persist.ScanRecord.verdict`).

It then writes both trace exports next to this script:

* ``traced_session.jsonl`` — the JSONL event log; render it with
  ``python -m repro.cli trace-report traced_session.jsonl``;
* ``traced_session.trace.json`` — Chrome ``trace_event`` JSON. Open
  https://ui.perfetto.dev (or ``about:tracing`` in Chrome) and load the
  file: each scan appears as a ``scan`` bar with the five pipeline
  stages nested beneath it, the ``biomechanical simulation`` stage
  expanding into assembly/solve spans with GMRES restart markers.

Run:  PYTHONPATH=src python examples/traced_session.py
"""

from __future__ import annotations

import pathlib

from repro import IntraoperativePipeline, MetricsRegistry, PipelineConfig, Tracer
from repro.core.session import SurgicalSession
from repro.imaging import make_neurosurgery_case
from repro.obs import render_report, write_chrome_trace, write_jsonl

HERE = pathlib.Path(__file__).parent


def main() -> None:
    shape = (48, 48, 36)
    tracer = Tracer()
    metrics = MetricsRegistry()
    pipeline = IntraoperativePipeline(
        PipelineConfig(mesh_cell_mm=6.0, n_ranks=4, rigid_max_iter=2),
        tracer=tracer,
        metrics=metrics,
    )

    cases = [
        make_neurosurgery_case(shape=shape, shift_mm=shift, seed=200 + i)
        for i, shift in enumerate((2.5, 4.5, 6.0))
    ]
    print("Preparing preoperative model (traced, outside the scan budget)...")
    session = SurgicalSession.begin(
        pipeline, cases[0].preop_mri, cases[0].preop_labels
    )
    for i, case in enumerate(cases, start=1):
        result = session.process(case.intraop_mri)
        verdict = result.record.verdict()
        print(
            f"scan {i}: {result.timeline.total('intraoperative'):.2f} s, "
            f"budget {verdict.label} (headroom {verdict.headroom_seconds:+.1f} s)"
        )

    print()
    print(session.summary_table())
    print()
    print(render_report(tracer, title="Trace report (self/total seconds)"))
    print()
    print("metrics:")
    for name, value in metrics.as_dict().items():
        print(f"  {name}: {value}")

    jsonl = write_jsonl(tracer, HERE / "traced_session.jsonl")
    chrome = write_chrome_trace(tracer, HERE / "traced_session.trace.json")
    print()
    print(f"wrote {jsonl}")
    print(f"wrote {chrome}  <- load this in https://ui.perfetto.dev")


if __name__ == "__main__":
    main()
