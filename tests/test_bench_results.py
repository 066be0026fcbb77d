"""``benchmarks/results.txt``: a bench session replaces only the exhibits it runs.

``benchmarks/conftest.py::record_report`` writes each exhibit's table
through ``bench_io.record_exhibit``. Running one exhibit must keep every
other exhibit's table, Fig. 6's Gantt chart (a block with no title of its
own) included, in file order.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCH_IO = Path(__file__).parents[1] / "benchmarks" / "bench_io.py"


@pytest.fixture(scope="module")
def bench_io():
    spec = importlib.util.spec_from_file_location("bench_io", BENCH_IO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table(exhibit: str, value: str) -> str:
    return f"{exhibit}: a title\nkey | value\n----+------\nrow | {value}\n  note: a note"


GANTT = "Intraoperative Gantt (this machine)\nstage | 0   1s\n------+------\nrigid | ## 0.3s"


@pytest.fixture
def results(tmp_path):
    path = tmp_path / "results.txt"
    tables = [table("Ablation A", "1"), table("Figure 6", "2") + "\n\n" + GANTT,
              table("Figure 7", "3")]
    path.write_text("".join(f"{t}\n\n" for t in tables))
    return path


def test_running_one_exhibit_keeps_the_others(bench_io, results):
    before = bench_io._exhibits(results.read_text())
    assert list(before) == ["Ablation A", "Figure 6", "Figure 7"]
    assert before["Figure 6"].endswith(GANTT)
    bench_io.record_exhibit(results, "Figure 7", table("Figure 7", "30"))
    after = bench_io._exhibits(results.read_text())
    assert list(after) == list(before)
    assert after["Figure 7"] == table("Figure 7", "30")
    assert {k: v for k, v in after.items() if k != "Figure 7"} == {
        k: v for k, v in before.items() if k != "Figure 7"
    }


def test_an_exhibit_keeps_its_place_and_a_new_one_is_appended(bench_io, results):
    bench_io.record_exhibit(results, "Ablation A", table("Ablation A", "10"))
    bench_io.record_exhibit(results, "Figure 9", table("Figure 9", "4"))
    text = results.read_text()
    assert list(bench_io._exhibits(text)) == ["Ablation A", "Figure 6", "Figure 7", "Figure 9"]
    assert text.startswith(table("Ablation A", "10") + "\n\n")


def test_the_first_exhibit_creates_the_file(bench_io, tmp_path):
    path = tmp_path / "results.txt"
    bench_io.record_exhibit(path, "Figure 3", table("Figure 3", "1"))
    assert path.read_text() == table("Figure 3", "1") + "\n\n"


def test_the_committed_file_round_trips(bench_io):
    text = (BENCH_IO.parent / "results.txt").read_text()
    exhibits = bench_io._exhibits(text)
    assert "".join(f"{t}\n\n" for t in exhibits.values()) == text
