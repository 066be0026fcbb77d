"""Fast self-tests of the benchmark harness (seconds; one scaled-down smoke run).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q

Outside tier-1 ``testpaths``: these test the yardstick, not the program.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from spans import SpanRecorder, fold, fold_error_share, self_times  # noqa: E402
from spec import OUT_DIR, REPO, WORKLOADS, load_benchmark  # noqa: E402
from stats import (  # noqa: E402
    judge, percentile, quartile_spread, summarize, tail_percentile, worsening,
)


# -- the percentile rule -------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(19) is None
    assert tail_percentile(39) is None  # 25% of 39 = 9.75 samples beyond p75
    assert tail_percentile(40) == 75
    assert tail_percentile(100) == 90
    assert tail_percentile(200) == 95
    assert tail_percentile(1000) == 99


def test_summarize_reports_median_tail_and_count():
    values = list(range(1, 41))
    out = summarize(values)
    assert out["n"] == 40
    assert out["p50"] == pytest.approx(20.5)
    assert out["tail"] == {"p": 75, "value": pytest.approx(percentile(values, 75))}
    assert summarize([1.0, 2.0, 3.0])["tail"] is None


def test_percentile_interpolates_like_numpy():
    np = pytest.importorskip("numpy")
    values = [0.3, 1.7, 0.9, 4.2, 2.2, 0.1]
    for p in (0, 25, 50, 75, 100):
        assert percentile(values, p) == pytest.approx(float(np.percentile(values, p)))


# -- span self time ------------------------------------------------------------


def test_self_time_subtracts_merged_children():
    rec = SpanRecorder()
    parent = rec.add("scan[0]", 0.0, 10.0)
    rec.add("a", 1.0, 4.0, parent)
    rec.add("b", 3.0, 6.0, parent)  # overlaps a: covered interval is 1..6
    rec.add("outside", 9.0, 12.0, parent)  # clipped to the parent: 9..10
    selfs = self_times(rec.spans)
    assert selfs[parent] == pytest.approx(10.0 - 5.0 - 1.0)
    table = fold(rec.spans)
    assert table["scan[0]"]["self_s"] == pytest.approx(4.0)
    assert table["a"] == {"count": 1, "total_s": 3.0, "self_s": 3.0}


def test_fold_error_is_zero_for_a_laid_out_timeline_and_flags_overruns():
    rec = SpanRecorder()
    scan = rec.add("scan[0]", 0.0, 2.0)
    end = rec.add_sequence(scan, 0.0, [("rigid", 0.5), ("classify", 1.0)])
    assert end == pytest.approx(1.5)
    is_unit = lambda s: s.name.startswith("scan[")  # noqa: E731
    assert fold_error_share(rec.spans, is_unit) == pytest.approx(0.0)
    rec.add("late", 1.5, 3.0, scan)  # stages now claim 3.0 s of a 2.0 s scan
    assert fold_error_share(rec.spans, is_unit) == pytest.approx(0.5)


def test_disabled_recorder_records_nothing():
    rec = SpanRecorder(enabled=False)
    assert rec.add("x", 0.0, 1.0) is None
    with rec.span("y") as span_id:
        assert span_id is None
    assert rec.spans == []


# -- pacing --------------------------------------------------------------------


def test_pacing_schedule_is_open_loop_with_drifting_phases():
    steady = WORKLOADS["serve-steady"]
    a, b = steady.schedule(15.0)
    assert a[0] == steady.offsets_s[0] and b[0] == steady.offsets_s[1]
    assert all(t < 15.0 for t in a + b)
    assert [round(y - x, 9) for x, y in zip(a, a[1:])] == [steady.periods_s[0]] * (len(a) - 1)
    assert len(a) == 11 and len(b) == 10
    # the two rooms never fall into lockstep inside the window
    gaps = {round((tb - ta) % steady.periods_s[0], 6) for ta, tb in zip(a, b)}
    assert len(gaps) == len(b)
    assert steady.schedule(0.4) == [[0.0], []]
    assert not WORKLOADS["serve-newpatient"].paced


# -- bounds --------------------------------------------------------------------


def test_judge_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    assert judge(base, [1.05, 1.06, 1.04, 1.05, 1.07], 0.10, "lower") == "ok"
    assert judge(base, [1.25, 1.26, 1.24, 1.25, 1.27], 0.10, "lower") == "regressed"
    assert judge(base, [0.80, 0.81, 0.79, 0.80, 0.82], 0.10, "lower") == "improved"
    assert judge(base, [1.25, 1.26, 1.24, 1.25, 1.27], 0.10, "higher") == "improved"
    noisy = [0.7, 1.4, 1.0, 0.6, 1.5]
    assert quartile_spread(noisy) > 0.10
    assert judge(noisy, [0.9, 1.3, 1.1, 0.7, 1.6], 0.10, "lower") == "unresolved"
    # spread wider than the bound, but every run of B beats every run of A
    assert judge(noisy, [0.30, 0.50, 0.40, 0.35, 0.45], 0.10, "lower") == "improved"
    assert judge([1.0], [1.3], 0.25, "lower") == "regressed"  # single records: no spread


def test_worsening_respects_direction():
    assert worsening(2.0, 2.2, "lower") == pytest.approx(0.1)
    assert worsening(2.0, 2.2, "higher") == pytest.approx(-0.1)


def test_benchmark_json_matches_the_workloads_and_the_contract():
    bench = load_benchmark()
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert bench["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for declared in bench["workloads"]:
        assert declared["why"] == WORKLOADS[declared["name"]].why
        assert len(declared["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    # The contract's bounds are shares of the parent's median, so ISSUE 11's
    # absolute 0.5 s floor on setup_s is not expressible; it gets the
    # largest relative bound instead.
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))


# -- compare.py ----------------------------------------------------------------


def _record(workload="session-image", seed=0, latency=1.0, **prov):
    bench = load_benchmark()
    provenance = {
        "workload": workload, "seed": seed, "seconds": 15.0, "scale": 1.0, "official": True,
        "traced": False, "harness_version": "1", "backend": "numpy", "nproc": 2,
    }
    provenance.update(prov)
    return {
        "provenance": provenance,
        "end_to_end": {
            m["name"]: {"value": latency if m["unit"] == "s" else 1.0, "unit": m["unit"]}
            for m in bench["end_to_end"]
        },
    }


def test_compare_flags_a_regression_and_passes_equal_sets():
    bench = load_benchmark()
    a = [_record(seed=s, latency=1.0 + 0.01 * s) for s in range(5)]
    same = compare.compare(a, copy.deepcopy(a), bench)
    assert {r["verdict"] for r in same} == {"ok"}
    slow = [_record(seed=s, latency=1.5 + 0.01 * s) for s in range(5)]
    verdicts = {r["metric"]: r["verdict"] for r in compare.compare(a, slow, bench)}
    assert verdicts["scan_latency_p50_s"] == "regressed"
    assert verdicts["setup_s"] == "regressed"
    assert verdicts["field_err_mm"] == "ok"


@pytest.mark.parametrize(
    "change", [{"scale": 0.1}, {"backend": "numba"}, {"nproc": 8}, {"seconds": 5.0}]
)
def test_compare_refuses_unlike_provenance(change):
    a = [_record(seed=s) for s in range(3)]
    b = [_record(seed=s, **change) for s in range(3)]
    with pytest.raises(compare.UnlikeRecords):
        compare.compare(a, b, load_benchmark())


def test_compare_refuses_different_seeds_and_missing_workloads():
    bench = load_benchmark()
    a = [_record(seed=s) for s in range(3)]
    with pytest.raises(compare.UnlikeRecords):
        compare.compare(a, [_record(seed=s + 10) for s in range(3)], bench)
    with pytest.raises(compare.UnlikeRecords):
        compare.compare(a, a + [_record(workload="session-fem")], bench)


def test_compare_cli_exit_codes(tmp_path):
    for name, latency in (("a", 1.0), ("b", 1.6)):
        (tmp_path / name).mkdir()
        for seed in range(3):
            path = tmp_path / name / f"session-image.seed{seed}.trace0.json"
            path.write_text(json.dumps(_record(seed=seed, latency=latency)))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert compare.main([str(tmp_path / "a")]) == 0


# -- one real, scaled-down run ---------------------------------------------------


def test_scaled_smoke_of_serve_steady_is_marked_unofficial():
    """`--scale 0.1` runs the real socket path for ~1.5 s and says so."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve-steady",
         "--seed", "5", "--scale", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "(UNOFFICIAL)" in proc.stdout
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 3
    bench = load_benchmark()
    assert list(line["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    record = json.loads((OUT_DIR / "serve-steady.seed5.trace0.json").read_text())
    assert record["provenance"]["official"] is False
    assert record["provenance"]["scale"] == 0.1
    assert record["per_layer"]["result_mismatch_share"]["value"] == 0.0
    assert record["per_layer"]["harness.verified_cases"]["value"] >= 3
