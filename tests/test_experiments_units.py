"""CPU-light unit tests for experiment harness helpers (canned data)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import ExperimentReport
from repro.experiments.fig7 import ScalingPoint, report_from_points


class TestScalingReportFormatting:
    @pytest.fixture()
    def points(self):
        return [
            ScalingPoint(cpus=1, initialization=1.0, assembly=60.0, solve=40.0, iterations=70),
            ScalingPoint(cpus=4, initialization=1.2, assembly=16.0, solve=11.0, iterations=74),
            ScalingPoint(cpus=16, initialization=1.5, assembly=5.0, solve=4.0, iterations=90),
        ]

    def test_speedup_column(self, points):
        report = report_from_points(points, "Figure X", "t")
        speedups = [row[6] for row in report.rows]
        assert speedups[0] == pytest.approx(1.0)
        assert speedups[2] == pytest.approx(100.0 / 9.0)

    def test_sum_column_includes_init(self, points):
        report = report_from_points(points, "Figure X", "t")
        assert report.rows[0][4] == pytest.approx(101.0)

    def test_total_property(self, points):
        assert points[0].total == pytest.approx(101.0)


class TestExperimentReportExtra:
    def test_extra_sections_appended(self):
        report = ExperimentReport("E", "t", ["a"], [[1]], notes=["n"], extra=["PLOT"])
        text = report.table()
        assert text.index("note: n") < text.index("PLOT")

    def test_table_without_notes_or_extra(self):
        report = ExperimentReport("E", "t", ["a"], [[1]])
        assert "note" not in report.table()


class TestTimelineGanttEdgeCases:
    def test_zero_duration_stage_gets_minimal_bar(self):
        from repro.core.timeline import Timeline

        tl = Timeline()
        tl.add("instant", 0.0)
        tl.add("long", 10.0)
        text = tl.as_gantt(width=20)
        instant_line = [l for l in text.splitlines() if l.startswith("instant")][0]
        assert "#" in instant_line  # at least one glyph

    def test_bars_never_exceed_width(self):
        from repro.core.timeline import Timeline

        tl = Timeline()
        for i in range(5):
            tl.add(f"s{i}", 1.0 + i)
        width = 30
        for line in tl.as_gantt(width=width).splitlines()[2:]:
            bar = line.split("| ", 1)[1].rsplit(" ", 1)[0]
            assert len(bar.rstrip()) <= width

    @pytest.mark.parametrize(
        "stages",
        [
            [("rigid registration", 9.95), ("k-NN", 0.04), ("resample", 0.01)],
            [("a", 9.95), ("b", 0.04), ("c", 0.01)],
        ],
    )
    def test_every_row_is_as_wide_as_the_header(self, stages):
        """Late short stages stay inside the chart; short names keep the header aligned."""
        from repro.core.timeline import Timeline

        tl = Timeline()
        for name, seconds in stages:
            tl.add(name, seconds)
        width = 50
        header, rule, *rows = tl.as_gantt(width=width).splitlines()
        chart = header.index(" | ") + 3
        assert rule[chart - 2] == "+"
        for line in (rule, *rows):
            assert len(line) == len(header)
        for line, (_, seconds) in zip(rows, stages):
            assert line[chart - 2] == "|"
            bar, wall = line[chart : chart + width], line[chart + width :]
            assert bar.strip(" ") and set(bar.strip(" ")) == {"#"}
            assert wall.strip() == f"{seconds:.2f}s"
        assert rows[-1][chart + width - 1] == "#"
