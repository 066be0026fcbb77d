"""Tests for the experiment harness (small-scale versions of each figure)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import fig3, fig4, fig5, fig6, fig7, fig8, fig9
from repro.experiments.common import ExperimentReport, build_clinical_system
from repro.machines.spec import DEEP_FLOW, ULTRA80_CLUSTER, ULTRA_HPC_6000


@pytest.fixture(scope="module")
def tiny_system():
    """A scaled-down 'clinical' system for fast harness tests."""
    return build_clinical_system(target_equations=6000, shape=(40, 40, 30), seed=5)


class TestReportContainer:
    def test_table_renders(self):
        report = ExperimentReport("Figure X", "t", ["a", "b"], [[1, 2.0]], ["n"])
        text = report.table()
        assert "Figure X" in text
        assert "note: n" in text


class TestFig3:
    def test_deep_flow_table(self):
        report = fig3.run()
        items = [row[0] for row in report.rows]
        assert "CPU" in items and "OS" in items

    def test_all_machines(self):
        reports = fig3.run_all()
        assert len(reports) == 3


class TestFig4And5:
    @pytest.fixture(scope="class")
    def outcome(self):
        from repro.core.config import PipelineConfig

        return fig4.run(
            shape=(40, 40, 30),
            seed=4,
            config=PipelineConfig(mesh_cell_mm=7.0, rigid_max_iter=1, rigid_samples=4000),
        )

    def test_biomech_beats_rigid_in_deformed_zone(self, outcome):
        rows = {(r[0], r[1]): r[2] for r in outcome.report.rows}
        zone = "deformed zone (>2mm)"
        assert rows[(zone, "biomechanical")] < rows[(zone, "rigid only")]

    def test_biomech_close_to_oracle(self, outcome):
        rows = {(r[0], r[1]): r[2] for r in outcome.report.rows}
        zone = "deformed zone (>2mm)"
        gap = rows[(zone, "biomechanical")] - rows[(zone, "oracle (true field)")]
        span = rows[(zone, "rigid only")] - rows[(zone, "oracle (true field)")]
        # At this deliberately coarse test resolution (40^3 voxels, 7 mm
        # cells) a modest closure is expected; the full-resolution Fig. 4
        # benchmark closes ~2/3 of the rigid->oracle gap.
        assert gap < 0.85 * span

    def test_fig5_deformation_localized(self, outcome):
        report = fig5.run(outcome)
        rows = dict((r[0], r[1]) for r in report.rows)
        assert rows["mean |u| within 35mm of craniotomy (mm)"] > rows["mean |u| elsewhere (mm)"]
        assert rows["mean inward alignment of moving vertices"] > 0.6


class TestFig6:
    def test_timeline_rows(self):
        from repro.core.config import PipelineConfig

        report = fig6.run(
            shape=(40, 40, 30),
            seed=6,
            config=PipelineConfig(mesh_cell_mm=7.0, rigid_max_iter=1, rigid_samples=4000),
        )
        actions = [row[1] for row in report.rows]
        assert "biomechanical simulation" in actions
        assert any("TOTAL" in a for a in actions)


    def test_paper_size_ledger_layout(self):
        """The paper-size command's table, run small: a provenance header,
        the build and its traced stages, then per scan every stage, the
        unstaged remainder and the total, FEM in wall and virtual seconds
        beside the paper's envelopes."""
        text = fig6.paper_size(shape=(32, 32, 24), target_nodes=1500, n_ranks=4)
        head, volume = text.splitlines()[:2]
        for field in ("commit", "backend numpy", "nproc", "BLAS threads", "block factorization on"):
            assert field in head
        assert "32x32x24 (24,576 voxels)" in volume and "equations" in volume
        rows = [[c.strip() for c in line.split("|")] for line in text.splitlines()[2:] if "|" in line]
        stages = [(r[0], r[1]) for r in rows[1:]]
        assert ("preoperative", "localization models") in stages
        # Assembly, elimination, the block factorization and the coarse
        # space, listed under the stage that pays them.
        at = stages.index(("preoperative", "solve context precompute"))
        under = stages[at + 1 : at + 1 + len(fig6.SOLVE_CONTEXT_SPANS)]
        assert under == [("preoperative", name) for name in fig6.SOLVE_CONTEXT_SPANS]
        seconds = [float(r[2]) for r in rows[2 + at : 2 + at + len(under)]]
        assert all(s > 0 for s in seconds)
        assert sum(seconds) <= float(rows[1 + at][2])
        for period in ("scan 1 (6 mm)", "scan 2 (9 mm)"):
            scan = {r[1]: r for r in rows if r[0] == period}
            assert list(scan)[-2:] == ["unstaged", "TOTAL"]
            assert float(scan["biomechanical simulation"][3]) > 0
            assert scan["biomechanical simulation"][4] == "< 10 s at 16 CPUs"
            assert scan["visualization resample"][4] == "0.5 s"
            staged = sum(float(r[2]) for name, r in scan.items() if name != "TOTAL")
            assert staged == pytest.approx(float(scan["TOTAL"][2]), rel=1e-3)


class TestScalingHarness:
    def test_fig7_scaling_shape(self, tiny_system):
        report = fig7.run(tiny_system, cpu_counts=(1, 4, 16))
        cpus = [r[0] for r in report.rows]
        totals = [r[4] for r in report.rows]
        speedups = [r[6] for r in report.rows]
        assert cpus == [1, 4, 16]
        assert totals[0] > totals[1] > totals[2]
        assert speedups[0] == pytest.approx(1.0)
        assert 1.5 < speedups[1] <= 4.0
        assert speedups[2] > 3.0

    def test_fig8_smp_similar_character(self, tiny_system):
        smp = fig8.run_smp(tiny_system, cpu_counts=(1, 4, 16))
        assert smp.rows[0][4] > smp.rows[-1][4]

    def test_fig8_ultra80(self, tiny_system):
        u80 = fig8.run_ultra80(tiny_system, cpu_counts=(1, 4, 8))
        assert u80.rows[0][4] > u80.rows[-1][4]

    def test_fig9_larger_system_slower(self, tiny_system):
        """A 2x bigger system costs more at every CPU count."""
        big = build_clinical_system(target_equations=12000, shape=(40, 40, 30), seed=5)
        small_pts = fig7.scaling_sweep(tiny_system, ULTRA_HPC_6000, (1, 4))
        big_pts = fig7.scaling_sweep(big, ULTRA_HPC_6000, (1, 4))
        for s, b in zip(small_pts, big_pts):
            assert b.assembly > s.assembly
            assert b.solve > s.solve

    def test_scaling_sweep_rejects_solution_drift(self, tiny_system):
        """The sweep asserts cross-P numerical agreement internally."""
        points = fig7.scaling_sweep(tiny_system, DEEP_FLOW, (1, 2))
        assert len(points) == 2

    def test_ultra80_crossing_node_boundary_penalized(self, tiny_system):
        pts = fig7.scaling_sweep(tiny_system, ULTRA80_CLUSTER, (4, 8))
        # Crossing Fast Ethernet at P=8 must not yield superlinear gain
        # over the in-node P=4 configuration.
        assert pts[1].solve > pts[0].solve * 0.3
