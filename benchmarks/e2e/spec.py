"""Workload definitions and declared metrics of the end-to-end benchmark.

`BENCHMARK.json` (repo root) declares the metric names, units,
directions and regression bounds; this module holds what that file's
fixed schema has no room for: the sizes, pipeline settings, pacing
schedules and output-check ceilings of the four workloads.

Sizes are cut well below ISSUE 11's (64x64x48 / 77k equations): the
benchmark driver allows ~37 s per run *including* set-up, three set-up
repetitions and the output check, so a scan has to cost ~1 s for a run to
hold ten or more of them. To keep the registration meaningful at these
voxel counts the phantom head is scaled to 0.7x (shell thicknesses
unchanged), which keeps voxels near 3 mm; see README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT_DIR = HERE / "out"
HARNESS_VERSION = "1"

#: Peak brain-shift magnitudes of each patient's four distinct
#: intraoperative scans, cycled in this order; consecutive scans always
#: differ, so every solve has new boundary conditions and a warm start
#: never sees the system it just solved.
SHIFTS_MM = (2.0, 4.0, 6.0, 5.0)

#: Linear scale of the phantom head (brain, ventricles, tumour); the
#: scalp/skull/CSF shells keep their thickness so they stay resolvable.
HEAD_SCALE = 0.7

#: Count-like and accuracy metrics are taken over the first this-many
#: timed scans (two full scan cycles) so they repeat exactly for a seed
#: however many scans the machine fits into the timed window.
DETERMINISTIC_SCANS = 8

#: Image-stage settings light enough for a ~1 s scan on this box.
LIGHT_IMAGE = {"rigid_max_iter": 1, "rigid_samples": 4000, "prototypes_per_class": 20}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: inputs, program settings, load shape."""

    name: str
    kind: str  # "session" (in-process) | "serve" (socket path)
    shape: tuple[int, int, int]
    config: dict
    why: str
    #: Output check: mean field error over the deterministic scans must
    #: stay below this (and below the do-nothing error when
    #: ``beats_do_nothing``).
    field_err_ceiling_mm: float = 2.0
    beats_do_nothing: bool = True
    # serve-only
    workers: int = 1
    rooms: int = 2
    #: Paced open loop: per-room submit period and first-due offset (s).
    #: Empty = closed loop (next case when the previous one returned).
    periods_s: tuple[float, ...] = ()
    offsets_s: tuple[float, ...] = ()
    #: New-patient workloads: every timed case is a patient the server has
    #: never seen, and a room stops after this many (or when the window
    #: closes), so memory that grows with every patient served does not
    #: depend on how fast the machine happened to be. 0 = each room keeps
    #: its one patient until the window closes.
    new_patients_per_room: int = 0
    #: Served cases checked against an in-process reference (all distinct
    #: (patient, scan) pairs when 0 = "all").
    verify_cases: int = 0
    setup_repeats: int = 3

    @property
    def paced(self) -> bool:
        return bool(self.periods_s)

    @property
    def new_patients(self) -> bool:
        return self.new_patients_per_room > 0

    def schedule(self, seconds: float) -> list[list[float]]:
        """Per room, the due times (s from the phase start) inside ``[0, seconds)``."""
        return [
            [offset + k * period for k in range(int(seconds / period) + 2)
             if offset + k * period < seconds]
            for period, offset in zip(self.periods_s, self.offsets_s)
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="session-image",
            kind="session",
            shape=(40, 40, 30),
            config={"mesh_cell_mm": 6.0, **LIGHT_IMAGE},
            why=(
                "in-process session, small mesh: the image stages (MI rigid, k-NN, surface, "
                "resample) do ~98% of a scan and FEM ~2%, so image-stage work shows here "
                "and FEM work must not move it"
            ),
            field_err_ceiling_mm=1.3,
        ),
        Workload(
            name="session-fem",
            kind="session",
            shape=(32, 32, 24),
            config={
                "mesh_cell_mm": 2.6,
                "n_ranks": 4,
                "surface_iterations": 25,
                **LIGHT_IMAGE,
            },
            why=(
                "in-process session, ~35k equations on 4 ranks: the warm GMRES solve is the "
                "largest stage and set-up pays meshing, assembly and factorisation, so "
                "solver work and work moved into set-up show"
            ),
            field_err_ceiling_mm=1.3,
        ),
        Workload(
            name="serve-steady",
            kind="serve",
            shape=(24, 24, 16),
            config={"mesh_cell_mm": 6.0, **LIGHT_IMAGE},
            why=(
                "socket path, 1 worker, 2 rooms paced open-loop at ~60% utilisation with "
                "drifting phases: real queue wait plus wire/codec/dispatch overhead, so "
                "the serving layer's share is largest"
            ),
            workers=1,
            periods_s=(1.4, 1.54),
            offsets_s=(0.0, 0.5),
            beats_do_nothing=False,
            field_err_ceiling_mm=2.0,
        ),
        Workload(
            name="serve-newpatient",
            kind="serve",
            shape=(32, 32, 24),
            config={"mesh_cell_mm": 5.0, **LIGHT_IMAGE},
            why=(
                "socket path, 2 workers, 2 rooms closed-loop, every case a new patient: "
                "upload, model build and cold solve on the critical path, cache all misses, "
                "so a warm-scan gain that costs builds or memory shows"
            ),
            workers=2,
            new_patients_per_room=12,
            verify_cases=4,
            field_err_ceiling_mm=2.0,
            beats_do_nothing=False,
        ),
    )
}


def load_benchmark() -> dict:
    """The declared metrics and bounds (``BENCHMARK.json`` at the repo root)."""
    return json.loads((REPO / "BENCHMARK.json").read_text())
