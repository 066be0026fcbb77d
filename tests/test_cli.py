"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_pipeline_defaults(self):
        args = build_parser().parse_args(["pipeline"])
        assert args.shape == [64, 64, 48]
        assert args.machine == "deep_flow"

    def test_scaling_args(self):
        args = build_parser().parse_args(
            ["scaling", "--equations", "1000", "--machine", "ultra80", "--cpus", "1", "2"]
        )
        assert args.equations == 1000
        assert args.cpus == [1, 2]

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pipeline", "--machine", "cray"])


class TestCommands:
    def test_pipeline_small(self, capsys, tmp_path):
        rc = main(
            [
                "pipeline",
                "--shape", "32", "32", "24",
                "--cell", "8",
                "--cpus", "2",
                "--seed", "3",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "biomechanical simulation" in out
        assert "match RMS" in out
        assert (tmp_path / "fig4_montage.pgm").exists()
        assert (tmp_path / "fig5.ppm").exists()

    def test_pipeline_traced_with_budget(self, capsys, tmp_path):
        import json

        trace = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        rc = main(
            [
                "pipeline",
                "--shape", "32", "32", "24",
                "--cell", "8",
                "--cpus", "2",
                "--trace", str(trace),
                "--chrome", str(chrome),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Trace report" in out
        assert "budget verdict: ok (headroom +" in out
        doc = json.loads(chrome.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
        rc = main(["trace-report", str(trace), "--min-seconds", "0.001"])
        assert rc == 0
        assert "process_scan" in capsys.readouterr().out

    def test_scaling_small(self, capsys):
        rc = main(
            [
                "scaling",
                "--equations", "4000",
                "--machine", "ultra80",
                "--cpus", "1", "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Ultra 80" in out
        assert "CPUs" in out

    def test_predict_small(self, capsys):
        rc = main(["predict", "--shape", "32", "32", "24", "--cell", "8"])
        assert rc == 0
        assert "predicted sag" in capsys.readouterr().out

    def test_predict_heterogeneous(self, capsys):
        rc = main(
            ["predict", "--shape", "32", "32", "24", "--cell", "8", "--heterogeneous"]
        )
        assert rc == 0
        assert "heterogeneous" in capsys.readouterr().out


class TestObsFlight:
    """``repro obs flight`` over the mixed bundles ``--obs-dir`` writes."""

    @pytest.fixture
    def bundle(self, tmp_path):
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(capacity=8, enabled=True, label="worker-0")
        recorder.note("case.start", case_id="case-01")
        recorder.note("scan.complete", scan=0)
        recorder.dump(tmp_path / "flight-worker-0.json", reason="scan")
        # Decoys the real bundle also contains.
        (tmp_path / "trace.json").write_text('{"traceEvents": []}')
        (tmp_path / "metrics.json").write_text('{"metrics": {}}')
        return tmp_path

    def test_directory_skips_non_flight_json(self, capsys, bundle):
        rc = main(["obs", "flight", str(bundle)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "worker-0" in out
        assert "scan.complete" in out

    def test_directory_without_dumps_fails(self, capsys, tmp_path):
        (tmp_path / "trace.json").write_text('{"traceEvents": []}')
        rc = main(["obs", "flight", str(tmp_path)])
        assert rc == 1
        assert "no flight dumps" in capsys.readouterr().err

    def test_explicit_non_flight_file_fails_cleanly(self, capsys, bundle):
        rc = main(["obs", "flight", str(bundle / "trace.json")])
        assert rc == 1
        assert "not a flight-recorder dump" in capsys.readouterr().err

    def test_missing_path_fails_cleanly(self, capsys, tmp_path):
        rc = main(["obs", "flight", str(tmp_path / "absent.json")])
        assert rc == 1
        assert capsys.readouterr().err.strip()


class TestObsMetricsBundle:
    """``repro obs slo`` / ``repro obs metrics`` over a metrics-only bundle."""

    @pytest.fixture
    def bundle(self, tmp_path):
        import json

        from repro.obs import MetricsRegistry

        # The series a gateway records per served scan.
        metrics = MetricsRegistry()
        for seconds in (2.0, 25.0):
            stages = {"rigid registration": 1.0, "biomechanical simulation": seconds}
            for stage, stage_seconds in stages.items():
                metrics.histogram(f"budget.stage_seconds[stage={stage}]").observe(
                    stage_seconds
                )
            metrics.histogram("budget.scan_seconds").observe(sum(stages.values()))
        metrics.histogram("serving.queue_wait_seconds").observe(0.5)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(metrics.snapshot()))
        return path

    def test_slo_prints_per_stage_rows(self, capsys, bundle):
        rc = main(["obs", "slo", str(bundle.parent)])
        assert rc == 0
        rows = {
            line.split("|")[0].strip(): line
            for line in capsys.readouterr().out.splitlines()
            if "|" in line
        }
        assert "MISSED" in rows["biomechanical simulation"]
        assert "ok" in rows["rigid registration"]
        assert "ok" in rows["scan total"]
        assert rows["queue wait"].rstrip().endswith("-")

    def test_slo_without_latency_samples_fails(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text('{"counters": {"serving.scans": 2}}')
        assert main(["obs", "slo", str(path)]) == 1
        assert "no latency samples" in capsys.readouterr().err

    def test_metrics_exports_stage_histograms(self, capsys, bundle):
        rc = main(["obs", "metrics", str(bundle)])
        assert rc == 0
        out = capsys.readouterr().out
        assert 'budget_stage_seconds{stage="biomechanical simulation",quantile="0.5"}' in out
        assert 'budget_stage_seconds_count{stage="rigid registration"} 2' in out
