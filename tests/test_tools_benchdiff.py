"""Tests for the bench-regression gate on ``BENCH_hotpath.json``."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.tools.benchdiff import HOT_PATHS, compare, run_diff

NAME = "BENCH_hotpath.json"
BASELINE = Path(__file__).parents[1] / "benchmarks" / "baselines" / NAME


@pytest.fixture
def gate(tmp_path):
    """``gate(scale)``: exit code of the 25 % diff of the committed baseline
    against a copy of it whose first scan's keys are multiplied by ``scale``."""
    base = json.loads(BASELINE.read_text())

    def run(scale: dict[str, float]) -> int:
        fresh = copy.deepcopy(base)
        for key, factor in scale.items():
            fresh["scans"][0][key] *= factor
        (tmp_path / NAME).write_text(json.dumps(fresh))
        return run_diff(BASELINE.parent, tmp_path, 25.0, [NAME])

    return run


class TestHotpathGate:
    def test_seconds_are_gated_and_the_ratio_is_not(self):
        paths = dict(HOT_PATHS[NAME])
        assert paths["scans.0.cold_seconds"] == "lower"
        assert paths["scans.0.warm_seconds"] == "lower"
        assert not any("speedup_vs_cold_first" in path for path in paths)

    def test_rigid_search_evaluations_and_seconds_are_gated(self, tmp_path):
        """The count that PR 21 cut cannot creep back unnoticed."""
        paths = dict(HOT_PATHS[NAME])
        assert paths["rigid_registration.evaluations"] == "lower"
        assert paths["rigid_registration.seconds"] == "lower"
        base = json.loads(BASELINE.read_text())
        for key in ("evaluations", "seconds"):
            fresh = copy.deepcopy(base)
            fresh["rigid_registration"][key] *= 1.3
            (tmp_path / NAME).write_text(json.dumps(fresh))
            assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 1

    def test_surface_snap_iterations_and_seconds_are_gated(self, tmp_path):
        """A snap that creeps again (176 iterations with the membrane in it) fails."""
        paths = dict(HOT_PATHS[NAME])
        assert paths["surface_snap.iterations"] == "lower"
        assert paths["surface_snap.seconds"] == "lower"
        base = json.loads(BASELINE.read_text())
        assert base["surface_snap"]["iterations"] <= 15
        for key in ("iterations", "seconds"):
            fresh = copy.deepcopy(base)
            fresh["surface_snap"][key] *= 1.3
            (tmp_path / NAME).write_text(json.dumps(fresh))
            assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 1

    def test_classification_seconds_are_gated(self, tmp_path):
        """The k-NN stage drifting back to the full vote on every row (+80 %) fails."""
        assert dict(HOT_PATHS[NAME])["classification.seconds"] == "lower"
        base = json.loads(BASELINE.read_text())
        assert base["classification"]["voxels"] == 48000
        fresh = copy.deepcopy(base)
        fresh["classification"]["seconds"] *= 1.3
        (tmp_path / NAME).write_text(json.dumps(fresh))
        assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 1

    def test_resample_seconds_are_gated(self, tmp_path):
        """The inverter back on ten sweeps a voxel, or the warp back on the
        whole grid (+70 % on this phantom), fails."""
        assert dict(HOT_PATHS[NAME])["resample.seconds"] == "lower"
        base = json.loads(BASELINE.read_text())
        block = base["resample"]
        assert block["seconds"] == block["invert_seconds"] + block["warp_seconds"]
        assert block["sweeps_per_voxel"] < 10
        fresh = copy.deepcopy(base)
        fresh["resample"]["seconds"] *= 1.3
        (tmp_path / NAME).write_text(json.dumps(fresh))
        assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 1

    def test_default_tolerance_solve_iterations_and_seconds_are_gated(self, tmp_path):
        """A production solve drifting back towards 1e-7 (+50 % iterations) fails."""
        paths = dict(HOT_PATHS[NAME])
        assert paths["pipeline_solve.iterations"] == "lower"
        assert paths["pipeline_solve.seconds"] == "lower"
        base = json.loads(BASELINE.read_text())
        assert base["pipeline_solve"]["tol"] == 1e-5
        for key in ("iterations", "seconds"):
            fresh = copy.deepcopy(base)
            fresh["pipeline_solve"][key] *= 1.3
            (tmp_path / NAME).write_text(json.dumps(fresh))
            assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 1

    def test_production_solve_iterations_and_seconds_are_gated(self, tmp_path):
        """The pipeline's own solve (compact subdomains, rigid-body coarse
        space) losing its iterations (block slabs, plain block Jacobi: 37
        against 26, +42 %) fails; so does its apply growing 30 % dearer."""
        paths = dict(HOT_PATHS[NAME])
        assert paths["pipeline_solve_production.iterations"] == "lower"
        assert paths["pipeline_solve_production.seconds"] == "lower"
        base = json.loads(BASELINE.read_text())
        block = base["pipeline_solve_production"]
        assert block["partitioner"] == "coordinate_bisection"
        assert block["preconditioner"] == "coarse_block_jacobi"
        assert block["n_equations"] == base["pipeline_solve"]["n_equations"]
        for key in ("iterations", "seconds"):
            fresh = copy.deepcopy(base)
            fresh["pipeline_solve_production"][key] *= 1.3
            (tmp_path / NAME).write_text(json.dumps(fresh))
            assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 1

    def test_distance_transform_window_and_seconds_are_gated(self, tmp_path):
        """The transform computing the whole grid again (window_voxels +46 %
        on this phantom) or running slower past the band fails."""
        paths = dict(HOT_PATHS[NAME])
        assert paths["distance_transform.window_voxels"] == "lower"
        assert paths["distance_transform.seconds"] == "lower"
        base = json.loads(BASELINE.read_text())
        block = base["distance_transform"]
        assert (block["build_transforms"], block["scan_transforms"]) == (8, 2)
        assert block["window_voxels"] < block["voxels"]
        for key in ("window_voxels", "seconds"):
            fresh = copy.deepcopy(base)
            fresh["distance_transform"][key] *= 1.3
            (tmp_path / NAME).write_text(json.dumps(fresh))
            assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 1

    def test_a_smoke_block_is_not_compared_with_a_full_size_one(self, tmp_path, capsys):
        """Flags differ: a warning naming both sizes, neither regression nor
        pass (the baseline's 4,046-node smoke mesh against the 25,750-node
        one read +494 %). Flags equal: the same +30 % fails."""
        base = json.loads(BASELINE.read_text())
        assert base["mesh_generation"]["smoke"] is True
        fresh = copy.deepcopy(base)
        fresh["mesh_generation"].update(smoke=False, n_nodes=25750)
        fresh["mesh_generation"]["seconds"] *= 5.9
        (tmp_path / NAME).write_text(json.dumps(fresh))
        assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 0
        out = capsys.readouterr().out
        assert (
            "[warn] BENCH_hotpath.json:mesh_generation: baseline is a smoke block, "
            "fresh is full-size (n_nodes 4,046 vs 25,750) -- not compared"
        ) in out
        assert "mesh_generation.seconds" not in out
        assert "mesh_generation.peak_bytes_allocated" not in out
        gated = len(HOT_PATHS[NAME])
        assert f"benchdiff: {gated - 2} metric(s) compared, 0 regression(s)" in out

        fresh = copy.deepcopy(base)
        fresh["mesh_generation"]["seconds"] *= 1.3
        (tmp_path / NAME).write_text(json.dumps(fresh))
        assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 1

    def test_block_factorization_seconds_are_gated(self, tmp_path):
        """The model build's block ILU back on one thread (1.6x here) fails."""
        assert dict(HOT_PATHS[NAME])["block_factorization.seconds"] == "lower"
        base = json.loads(BASELINE.read_text())
        block = base["block_factorization"]
        assert block["threads"] == min(block["blocks"], block["nproc"])
        assert block["factor_nnz"] < 2 * block["block_nnz"]
        fresh = copy.deepcopy(base)
        fresh["block_factorization"]["seconds"] *= 1.3
        (tmp_path / NAME).write_text(json.dumps(fresh))
        assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 1

    def test_block_fsai_nonzeros_are_gated(self, tmp_path):
        """``G`` growing 30 % (a wider pattern: lower(|A|^2) holds 3.7x)
        fails; its seconds are recorded, not gated."""
        paths = dict(HOT_PATHS[NAME])
        assert paths["block_fsai.g_nnz"] == "lower"
        assert "block_fsai.seconds" not in paths
        base = json.loads(BASELINE.read_text())
        block = base["block_fsai"]
        assert block["threads"] == min(block["blocks"], block["nproc"])
        assert block["g_nnz"] < 0.7 * block["block_nnz"]
        fresh = copy.deepcopy(base)
        fresh["block_fsai"]["g_nnz"] *= 1.3
        (tmp_path / NAME).write_text(json.dumps(fresh))
        assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 1

    def test_patient_model_build_seconds_are_gated(self, tmp_path):
        """The model build growing 30 % dearer fails; the record splits it
        into the traced FEM stages beside the median of its builds."""
        assert dict(HOT_PATHS[NAME])["patient_model_build.seconds"] == "lower"
        base = json.loads(BASELINE.read_text())
        block = base["patient_model_build"]
        assert block["builds"] >= 3 and "nproc" in block
        assert set(block["stages"]) == {
            "mesh", "symbolic", "numeric", "reduction", "preconditioner", "coarse",
        }
        assert 0 < sum(block["stages"].values()) < block["seconds"]
        fresh = copy.deepcopy(base)
        fresh["patient_model_build"]["seconds"] *= 1.3
        (tmp_path / NAME).write_text(json.dumps(fresh))
        assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 1

    def test_a_block_on_another_core_count_is_not_compared(self, tmp_path, capsys):
        """``nproc`` differs: a warning naming both, neither regression nor
        pass. ``nproc`` equal: the same +60 % fails."""
        base = json.loads(BASELINE.read_text())
        fresh = copy.deepcopy(base)
        nproc = base["block_factorization"]["nproc"]
        fresh["block_factorization"].update(nproc=nproc + 2, threads=4)
        fresh["block_factorization"]["seconds"] *= 1.6
        (tmp_path / NAME).write_text(json.dumps(fresh))
        assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 0
        out = capsys.readouterr().out
        assert (
            f"[warn] BENCH_hotpath.json:block_factorization: baseline ran on nproc {nproc}, "
            f"fresh on nproc {nproc + 2} -- not compared"
        ) in out
        assert "block_factorization.seconds" not in out

        del fresh["block_factorization"]["nproc"]
        (tmp_path / NAME).write_text(json.dumps(fresh))
        assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 0
        assert "fresh on nproc unrecorded -- not compared" in capsys.readouterr().out

        fresh["block_factorization"]["nproc"] = nproc
        (tmp_path / NAME).write_text(json.dumps(fresh))
        assert run_diff(BASELINE.parent, tmp_path, 25.0, [NAME]) == 1

    def test_a_refused_pair_yields_no_delta(self):
        """Neither a regression nor a pass: no ``Delta`` to count, one warning."""
        block = {"smoke": True, "n_nodes": 10, "seconds": 1.0}
        deltas, warnings = compare(
            NAME, {"mesh_generation": block},
            {"mesh_generation": {**block, "smoke": False}},
            [("mesh_generation.seconds", "lower")],
        )
        assert deltas == [] and len(warnings) == 1

    def test_unchanged_record_passes(self, gate):
        assert gate({}) == 0

    @pytest.mark.parametrize("key", ["cold_seconds", "warm_seconds"])
    def test_slower_past_the_threshold_fails(self, gate, key):
        assert gate({key: 1.2}) == 0
        assert gate({key: 1.3}) == 1

    def test_a_faster_cold_scan_passes(self, gate):
        # Halving the cold scan halves speedup_vs_cold_first: the ratio
        # gate failed exactly this record (PR 17 had to re-baseline).
        assert gate({"cold_seconds": 0.5, "speedup_vs_cold_first": 0.5}) == 0
