"""Tests for timeline, config, and the end-to-end pipeline integration."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import IntraoperativePipeline
from repro.core.session import SurgicalSession
from repro.core.timeline import Timeline
from repro.imaging.phantom import Tissue, make_neurosurgery_case
from repro.machines.spec import DEEP_FLOW
from repro.obs import Tracer
from repro.util import ShapeError, ValidationError


class TestTimeline:
    def test_stage_records_duration(self):
        tl = Timeline()
        with tl.stage("work"):
            pass
        assert len(tl.entries) == 1
        assert tl.entries[0].seconds >= 0

    def test_totals_by_period(self):
        tl = Timeline()
        tl.add("a", 1.0, "preoperative")
        tl.add("b", 2.0, "intraoperative")
        tl.add("c", 3.0, "intraoperative")
        assert tl.total() == 6.0
        assert tl.total("intraoperative") == 5.0
        assert tl.seconds_for("b") == 2.0

    def test_as_table_contains_stages(self):
        tl = Timeline()
        tl.add("rigid registration", 0.5)
        text = tl.as_table("T")
        assert "rigid registration" in text
        assert "TOTAL" in text


class TestConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.n_ranks == 1
        assert int(Tissue.BRAIN) in cfg.brain_labels

    def test_validation(self):
        with pytest.raises(ValidationError):
            PipelineConfig(brain_labels=())
        with pytest.raises(ValidationError):
            PipelineConfig(mesh_cell_mm=0.0)
        with pytest.raises(ValidationError):
            PipelineConfig(n_ranks=0)


@pytest.fixture(scope="module")
def pipeline_run():
    case = make_neurosurgery_case(shape=(48, 48, 36), shift_mm=6.0, seed=17)
    cfg = PipelineConfig(mesh_cell_mm=6.0, n_ranks=2, rigid_max_iter=2, rigid_samples=6000)
    pipeline = IntraoperativePipeline(cfg, machine=DEEP_FLOW)
    preop = pipeline.prepare_preoperative(case.preop_mri, case.preop_labels)
    result = pipeline.process_scan(case.intraop_mri, preop)
    return case, cfg, preop, result


class TestPipelineIntegration:
    def test_biomechanical_beats_rigid(self, pipeline_run):
        _, _, _, result = pipeline_run
        assert result.match_simulated_rms < result.match_rigid_rms
        assert result.match_simulated_mi > result.match_rigid_mi

    def test_recovers_most_of_the_deformation(self, pipeline_run):
        case, _, _, result = pipeline_run
        brain = case.brain_mask()
        err = np.linalg.norm(result.grid_displacement - case.true_forward_mm, axis=-1)[brain]
        true = np.linalg.norm(case.true_forward_mm, axis=-1)[brain]
        assert err.mean() < 0.5 * true.max()
        assert err.mean() < true.mean() + 0.3

    def test_timeline_has_all_paper_stages(self, pipeline_run):
        _, _, _, result = pipeline_run
        stages = [e.stage for e in result.timeline.entries]
        assert stages == [
            "rigid registration",
            "tissue classification",
            "surface displacement",
            "biomechanical simulation",
            "visualization resample",
        ]

    def test_virtual_machine_times_recorded(self, pipeline_run):
        _, _, _, result = pipeline_run
        assert result.simulation.total_seconds > 0

    def test_segmentation_brain_overlaps_truth(self, pipeline_run):
        case, cfg, _, result = pipeline_run
        from repro.imaging.metrics import dice_coefficient

        pred = np.isin(result.segmentation.data, cfg.intraop_brain_labels)
        truth = np.isin(
            case.intraop_labels.data,
            list(cfg.brain_labels) + [int(Tissue.RESECTION)],
        )
        assert dice_coefficient(pred, truth) > 0.9

    def test_deformed_mri_shares_grid(self, pipeline_run):
        case, _, _, result = pipeline_run
        assert result.deformed_mri.same_grid_as(case.preop_mri)

    def test_prototype_reuse_across_scans(self, pipeline_run):
        """Second scan reuses recorded prototypes (paper's model update)."""
        case, cfg, preop, result = pipeline_run
        pipeline = IntraoperativePipeline(cfg, machine=None)
        second = pipeline.process_scan(
            case.intraop_mri, preop, prototypes=result.prototypes
        )
        assert np.array_equal(
            second.prototypes.points_world, result.prototypes.points_world
        )
        assert second.match_simulated_rms < second.match_rigid_rms

    def test_grid_mismatch_rejected(self, pipeline_run):
        case, cfg, _, _ = pipeline_run
        pipeline = IntraoperativePipeline(cfg)
        bad = make_neurosurgery_case(shape=(24, 24, 18), seed=1)
        with pytest.raises(ValidationError):
            pipeline.prepare_preoperative(case.preop_mri, bad.preop_labels)

    def test_target_mesh_nodes_config(self):
        case = make_neurosurgery_case(shape=(32, 32, 24), seed=3)
        cfg = PipelineConfig(target_mesh_nodes=1500, rigid_max_iter=1, surface_iterations=50)
        pipeline = IntraoperativePipeline(cfg)
        preop = pipeline.prepare_preoperative(case.preop_mri, case.preop_labels)
        assert abs(preop.mesher.mesh.n_nodes - 1500) / 1500 < 0.2


class TestPreoperativeSnap:
    """The scan-invariant snap phase is built once, preoperatively."""

    SETTINGS = dict(
        mesh_cell_mm=8.0, rigid_max_iter=1, rigid_samples=2000,
        surface_iterations=50,
    )

    @pytest.fixture(scope="class")
    def snap_run(self, small_case):
        pipeline = IntraoperativePipeline(PipelineConfig(**self.SETTINGS))
        preop = pipeline.prepare_preoperative(small_case.preop_mri, small_case.preop_labels)
        return pipeline, preop, pipeline.process_scan(small_case.intraop_mri, preop)

    @staticmethod
    def _snap_notes(result):
        return [n for n in result.timeline.notes if n.startswith("surface snap:")]

    def test_model_carries_the_snap_and_its_parameters(self, snap_run):
        pipeline, preop, _ = snap_run
        cfg = pipeline.config
        assert preop.snap_params == {
            "cap_mm": cfg.surface_cap_mm,
            "iterations": cfg.surface_iterations,
            "step_size": cfg.surface_step,
        }
        assert preop.snapped.positions.shape == preop.surface.vertices.shape
        assert 1 <= preop.snapped.iterations <= 15
        assert preop.snapped.converged
        assert preop.snapped.mean_residual_mm < 0.02

    def test_reuse_is_noted_and_equals_the_per_scan_snap(self, small_case, snap_run):
        pipeline, preop, reused = snap_run
        assert reused.correspondence.snapped is preop.snapped
        assert self._snap_notes(reused) == [
            f"surface snap: reused preoperative snap ({preop.snapped.iterations} iterations)"
        ]
        bare = dataclasses.replace(preop, snapped=None, snap_params=None)
        recomputed = pipeline.process_scan(small_case.intraop_mri, bare)
        (note,) = self._snap_notes(recomputed)
        assert note.startswith("surface snap: recomputed inside the scan")
        assert recomputed.correspondence.snapped is not preop.snapped
        assert np.array_equal(
            recomputed.correspondence.snapped.positions, preop.snapped.positions
        )
        assert np.array_equal(
            recomputed.correspondence.displacements, reused.correspondence.displacements
        )
        assert np.array_equal(recomputed.nodal_displacement, reused.nodal_displacement)
        assert [e.stage for e in recomputed.timeline.entries] == [
            e.stage for e in reused.timeline.entries
        ]

    @pytest.mark.parametrize(
        "override",
        [
            {"surface_iterations": 20},
            {"surface_cap_mm": 12.0},
            {"surface_step": 0.25},
        ],
    )
    def test_different_surface_parameters_recompute(self, small_case, snap_run, override):
        _, preop, _ = snap_run
        tracer = Tracer()
        other = IntraoperativePipeline(
            PipelineConfig(**{**self.SETTINGS, **override}), tracer=tracer
        )
        result = other.process_scan(small_case.intraop_mri, preop)
        (note,) = self._snap_notes(result)
        assert note.startswith("surface snap: recomputed inside the scan")
        (span,) = [s for s in tracer.finished() if s.name == "surface displacement"]
        assert span.attrs["snap_recomputed"] is True
        assert result.correspondence.snapped is not preop.snapped
        own = other.prepare_preoperative(small_case.preop_mri, small_case.preop_labels)
        assert np.array_equal(
            result.correspondence.snapped.positions, own.snapped.positions
        )

    def test_smoothing_alone_reuses_the_stored_snap(self, small_case, snap_run):
        """The snap has no membrane, so the membrane's weight is not in its key."""
        _, preop, _ = snap_run
        tracer = Tracer()
        other = IntraoperativePipeline(
            PipelineConfig(**{**self.SETTINGS, "surface_smoothing": 0.6}), tracer=tracer
        )
        result = other.process_scan(small_case.intraop_mri, preop)
        assert result.correspondence.snapped is preop.snapped
        assert self._snap_notes(result) == [
            f"surface snap: reused preoperative snap ({preop.snapped.iterations} iterations)"
        ]
        (span,) = [s for s in tracer.finished() if s.name == "surface displacement"]
        assert "snap_recomputed" not in span.attrs

    def test_snap_span_says_what_the_snap_did(self, small_case):
        tracer = Tracer()
        pipeline = IntraoperativePipeline(PipelineConfig(**self.SETTINGS), tracer=tracer)
        preop = pipeline.prepare_preoperative(small_case.preop_mri, small_case.preop_labels)
        (span,) = [s for s in tracer.finished() if s.name == "surface snap"]
        assert span.attrs["iterations"] == preop.snapped.iterations
        assert span.attrs["converged"] is True
        assert span.attrs["residual_mm"] == preop.snapped.mean_residual_mm
        assert span.attrs["vertices"] == preop.surface.n_vertices

    def test_track_is_noted_and_a_capped_one_does_not_read_as_arrived(
        self, small_case, snap_run
    ):
        _, preop, full = snap_run
        tracked = full.correspondence.tracked
        assert tracked.converged
        assert (
            f"surface track: {tracked.iterations} it, "
            f"residual {tracked.mean_residual_mm:.2f} mm"
        ) in full.timeline.notes
        assert full.degradation.notes == []

        capped_pipeline = IntraoperativePipeline(
            PipelineConfig(**{**self.SETTINGS, "surface_iterations": 3})
        )
        capped = capped_pipeline.process_scan(small_case.intraop_mri, preop)
        tracked = capped.correspondence.tracked
        assert not tracked.converged and tracked.iterations == 3
        note = (
            "surface track: stopped at the 3-iteration cap "
            f"(last step {tracked.history[-1]:.3f} mm)"
        )
        assert note in capped.timeline.notes
        assert note in capped.degradation.notes
        assert not capped.degradation.degraded


class TestOneScanRunner:
    """``resilience.enabled`` configures the one guarded runner; it selects no other."""

    SETTINGS = dict(
        mesh_cell_mm=8.0, rigid_max_iter=1, rigid_samples=2000, surface_iterations=50
    )
    GUARDED_STAGES = (
        "_stage_rigid", "_stage_classify", "_stage_surface", "_stage_resample"
    )

    def _pipeline(self, enabled: bool) -> IntraoperativePipeline:
        config = PipelineConfig(**self.SETTINGS)
        config.resilience.enabled = enabled
        return IntraoperativePipeline(config)

    def test_healthy_session_is_the_same_program_either_way(self, small_case):
        """Two scans, policy on and off: equal fields, stages, iterations — and
        the same ``degradation`` shape, a ``full-fem`` report in both (a
        disabled policy reports what it did too; it just never reports less).
        """
        second = make_neurosurgery_case(shape=(32, 32, 24), shift_mm=4.0, seed=44)
        runs = {}
        for enabled in (True, False):
            pipeline = self._pipeline(enabled)
            session = SurgicalSession.begin(
                pipeline, small_case.preop_mri, small_case.preop_labels
            )
            results = [
                session.process(scan)
                for scan in (small_case.intraop_mri, second.intraop_mri)
            ]
            runs[enabled] = [
                (
                    result.field_shas(),
                    [entry.stage for entry in result.timeline.entries],
                    result.simulation.solver.iterations,
                    result.degradation.label,
                    result.degradation.rungs_tried,
                    result.degradation.degraded or result.degradation.escalated,
                )
                for result in results
            ]
        assert runs[True] == runs[False]
        first, later = runs[False]
        assert first[3:] == ("full-fem", ["gmres"], False)
        assert later[3:] == ("full-fem", ["gmres"], False)

    @pytest.mark.parametrize("stage", GUARDED_STAGES)
    @pytest.mark.parametrize("enabled, attempts", [(False, 1), (True, 2)])
    def test_a_failing_stage_is_attempted_as_the_policy_says(
        self, small_case, monkeypatch, stage, enabled, attempts
    ):
        """Disabled: one attempt, the stage's own exception object comes out.
        Enabled: the default retry runs it twice and the scan still returns."""
        pipeline = self._pipeline(enabled)
        preop = pipeline.prepare_preoperative(
            small_case.preop_mri, small_case.preop_labels
        )
        boom = ShapeError(f"injected {stage} failure")
        calls = []

        def failing(*args, **kwargs):
            calls.append(stage)
            raise boom

        monkeypatch.setattr(pipeline, stage, failing)
        if enabled:
            result = pipeline.process_scan(small_case.intraop_mri, preop)
            assert result.degradation.degraded == (stage != "_stage_rigid")
        else:
            with pytest.raises(ShapeError) as raised:
                pipeline.process_scan(small_case.intraop_mri, preop)
            assert raised.value is boom
        assert len(calls) == attempts

    def test_there_is_one_scan_orchestration(self):
        bodies = [
            name for name in vars(IntraoperativePipeline)
            if re.match(r"^_?process_scan", name)
        ]
        # The public entry and its one body; no batch or fail-fast twin.
        assert sorted(bodies) == ["_process_scan", "process_scan"]


class TestClassificationStage:
    SETTINGS = dict(
        mesh_cell_mm=8.0, rigid_max_iter=1, rigid_samples=2000, surface_iterations=50
    )

    def _two_scans(self, small_case, tracer=None):
        second = make_neurosurgery_case(shape=(32, 32, 24), shift_mm=4.0, seed=44)
        pipeline = IntraoperativePipeline(PipelineConfig(**self.SETTINGS), tracer=tracer)
        session = SurgicalSession.begin(
            pipeline, small_case.preop_mri, small_case.preop_labels
        )
        return [session.process(scan) for scan in (small_case.intraop_mri, second.intraop_mri)]

    def test_session_equals_the_point_major_full_vote_classifier(
        self, small_case, monkeypatch
    ):
        """Two scans with the former ``knn.py`` / ``atlas.py`` bodies overlaid:
        the same labels, so the same fields to the last bit."""
        from repro.segmentation.atlas import LocalizationModel
        from repro.segmentation.knn import KNNClassifier
        from tests.test_segmentation import (
            _frozen_kargmin_predict,
            _frozen_sample_at,
            _frozen_segment,
        )

        results = self._two_scans(small_case)
        monkeypatch.setattr(KNNClassifier, "predict", _frozen_kargmin_predict)
        monkeypatch.setattr(KNNClassifier, "segment", _frozen_segment)
        monkeypatch.setattr(LocalizationModel, "sample_at", _frozen_sample_at)
        for result, former in zip(results, self._two_scans(small_case)):
            assert np.array_equal(result.segmentation.data, former.segmentation.data)
            assert result.field_shas() == former.field_shas()

    def test_span_and_note_say_what_the_classifier_did(self, small_case):
        tracer = Tracer()
        results = self._two_scans(small_case, tracer)
        spans = [s for s in tracer.finished() if s.name == "tissue classification"]
        assert len(spans) == len(results) == 2
        for span, result in zip(spans, results):
            assert span.attrs["voxels"] == result.segmentation.data.size == 32 * 32 * 24
            assert span.attrs["prototypes"] == len(result.prototypes)
            assert span.attrs["k"] == 5
            share = span.attrs["open_share"]
            assert 0.0 < share < 0.2
            assert (
                f"k-NN: 24,576 voxels, {100.0 * share:.1f} % past the majority"
                in result.timeline.notes
            )
