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
    def _snap_counts(result):
        counts = result.record.counts("surface displacement")
        return {k: v for k, v in counts.items() if k.startswith("snap_")}

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
        assert self._snap_counts(reused) == {"snap_iterations": preop.snapped.iterations}
        bare = dataclasses.replace(preop, snapped=None, snap_params=None)
        recomputed = pipeline.process_scan(small_case.intraop_mri, bare)
        assert self._snap_counts(recomputed) == {
            "snap_iterations": recomputed.correspondence.snapped.iterations,
            "snap_recomputed": True,
        }
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
        assert self._snap_counts(result)["snap_recomputed"] is True
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
        assert self._snap_counts(result) == {"snap_iterations": preop.snapped.iterations}
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
        counts = full.record.counts("surface displacement")
        assert counts["track_iterations"] == tracked.iterations
        assert counts["track_converged"] is True
        assert counts["track_residual_mm"] == tracked.mean_residual_mm
        assert full.timeline.notes == [] and full.degradation.notes == []

        capped_pipeline = IntraoperativePipeline(
            PipelineConfig(**{**self.SETTINGS, "surface_iterations": 3})
        )
        capped = capped_pipeline.process_scan(small_case.intraop_mri, preop)
        tracked = capped.correspondence.tracked
        assert not tracked.converged and tracked.iterations == 3
        counts = capped.record.counts("surface displacement")
        assert counts["track_iterations"] == 3 and counts["track_converged"] is False
        assert counts["track_last_step_mm"] == tracked.history[-1]
        assert capped.degradation.notes == [
            "surface track: stopped at the 3-iteration cap "
            f"(last step {tracked.history[-1]:.3f} mm)"
        ]
        assert capped.timeline.notes == []
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
        assert first[3:] == ("full-fem", ["cg"], False)
        assert later[3:] == ("full-fem", ["cg"], False)

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
            band = span.attrs["band_voxels"]
            assert 0 < band < 24_576 and span.attrs["band_share"] == band / 24_576
            counts = result.record.counts("tissue classification")
            assert counts == {k: v for k, v in span.attrs.items() if k in counts}
            assert counts["band_mm"] == 20.0
            # Outside the band the prior's tumour stays: a class no prototype has.
            seg = result.segmentation.data
            assert counts["prior_only_tumor"] == np.sum(seg == Tissue.TUMOR) > 0
            assert not result.timeline.notes


class TestResampleStage:
    SETTINGS = TestClassificationStage.SETTINGS

    @pytest.fixture(scope="class")
    def traced_scan(self, small_case):
        tracer = Tracer()
        pipeline = IntraoperativePipeline(PipelineConfig(**self.SETTINGS), tracer=tracer)
        preop = pipeline.prepare_preoperative(small_case.preop_mri, small_case.preop_labels)
        return pipeline, preop, pipeline.process_scan(small_case.intraop_mri, preop), tracer

    def test_span_and_note_say_what_the_inverter_did(self, traced_scan):
        from repro.imaging.resample import _dilate_one_voxel, warp_volume

        _, preop, result, tracer = traced_scan
        (stage,) = [s for s in tracer.finished() if s.name == "visualization resample"]
        (span,) = [s for s in tracer.finished() if s.name == "invert field"]
        assert span.parent_id == stage.span_id and span.attrs["kind"] == "imaging"
        active, sweeps = span.attrs["active_voxels"], span.attrs["voxel_sweeps"]
        support = np.any(result.grid_displacement != 0, axis=-1)
        assert active == np.count_nonzero(_dilate_one_voxel(support))
        assert active <= sweeps < 10 * active
        deformed = warp_volume(preop.mri, np.zeros((*preop.mri.shape, 3)))
        warped = np.count_nonzero(result.deformed_mri.data != deformed.data)
        counts = result.record.counts("visualization resample")
        assert counts["voxels"] == 24_576
        assert counts["active_voxels"] == active
        assert counts["voxel_sweeps"] == sweeps
        assert counts["damped_voxels"] == span.attrs["damped_voxels"]
        assert warped <= counts["displaced_voxels"] <= active

    def test_match_metrics_equal_the_full_grid_computation(self, traced_scan, small_case):
        """Sampling only the scored region gives the four numbers bit for bit."""
        from repro.imaging.metrics import mutual_information, rms_difference
        from repro.imaging.resample import trilinear_sample

        pipeline, preop, result, _ = traced_scan
        scan = small_case.intraop_mri
        preop_in_scan = result.rigid.transform.inverse().apply(preop.labels.voxel_centers())
        target_mask = np.isin(result.segmentation.data, pipeline.config.intraop_brain_labels)
        got = pipeline._match_metrics(
            preop, scan, result.deformed_mri, preop_in_scan, target_mask
        )
        on_preop = trilinear_sample(scan, preop_in_scan, fill_value=0.0)
        region = target_mask | preop.brain_mask
        assert 0 < np.count_nonzero(region) < region.size
        want = (
            rms_difference(preop.mri.data, on_preop, mask=region),
            rms_difference(result.deformed_mri.data, on_preop, mask=region),
            mutual_information(preop.mri.data, on_preop, mask=region),
            mutual_information(result.deformed_mri.data, on_preop, mask=region),
        )
        assert got == want


class TestScanRecordStages:
    """What a stage counted lives on its timeline entry, and the record carries it."""

    SETTINGS = dict(
        mesh_cell_mm=8.0, rigid_max_iter=1, rigid_samples=2000,
        surface_iterations=50, n_ranks=2,
    )
    STAGES = [
        "rigid registration", "tissue classification", "surface displacement",
        "biomechanical simulation", "visualization resample",
    ]

    @staticmethod
    def _scan(small_case, monkeypatch, **overrides):
        """One scan on DEEP_FLOW, with the classifier and the inverter's counts kept."""
        import repro.core.pipeline as pipeline_module
        from repro.segmentation.knn import KNNClassifier

        seen = {}
        segment, invert = KNNClassifier.segment, pipeline_module.invert_with_counts

        def spy_segment(self, *args, **kwargs):
            seen["classifier"] = self
            return segment(self, *args, **kwargs)

        def spy_invert(*args, **kwargs):
            inverse, seen["inverted"] = invert(*args, **kwargs)
            return inverse, seen["inverted"]

        monkeypatch.setattr(KNNClassifier, "segment", spy_segment)
        monkeypatch.setattr(pipeline_module, "invert_with_counts", spy_invert)
        config = PipelineConfig(**{**TestScanRecordStages.SETTINGS, **overrides})
        pipeline = IntraoperativePipeline(config, machine=DEEP_FLOW)
        preop = pipeline.prepare_preoperative(small_case.preop_mri, small_case.preop_labels)
        return pipeline.process_scan(small_case.intraop_mri, preop), seen

    @staticmethod
    def _assert_record_has_every_stage_once(result):
        entries = result.timeline.entries
        assert result.record.timeline == [
            (e.stage, e.seconds, e.period, e.counts) for e in entries
        ]
        names = [stage for stage, _, _, _ in result.record.timeline]
        assert len(names) == len(set(names))

    def test_full_fem_scan_counts_equal_their_sources(self, small_case, monkeypatch):
        result, seen = self._scan(small_case, monkeypatch)
        self._assert_record_has_every_stage_once(result)
        assert [stage for stage, _, _, _ in result.record.timeline] == self.STAGES
        assert result.timeline.notes == [] and result.record.notes == []
        record = result.record
        assert record.counts("rigid registration") == {
            "evaluations": result.rigid.evaluations
        }
        classifier, knn = seen["classifier"], record.counts("tissue classification")
        assert knn["band_voxels"] == classifier.classified
        assert knn["open_share"] == classifier.open_share
        assert knn["prior_only_tumor"] == classifier.prior_only[int(Tissue.TUMOR)]
        inverted, resample = seen["inverted"], record.counts("visualization resample")
        assert resample == {
            "active_voxels": inverted.active_voxels,
            "voxel_sweeps": inverted.voxel_sweeps,
            "damped_voxels": inverted.damped_voxels,
            "displaced_voxels": inverted.displaced_voxels,
            "voxels": 32 * 32 * 24,
        }
        sim, fem = result.simulation, record.counts("biomechanical simulation")
        assert fem["iterations"] == sim.solver.iterations == record.solver_iterations
        assert (fem["virtual_init_s"], fem["virtual_assembly_s"], fem["virtual_solve_s"]) == (
            sim.initialization_seconds, sim.assembly_seconds, sim.solve_seconds
        )
        assert fem["virtual_solve_s"] > 0
        assert (fem["equations"], fem["free_equations"]) == (sim.n_dof_total, sim.n_equations)
        # The record's own solver / cache facts are not copied into counts.
        assert not {"converged", "restarts", "cache_hit", "hits"} & set(fem)

    def test_degraded_scan_records_its_fallback_stage(self, small_case, monkeypatch):
        from repro.resilience import FaultPlan

        plan = FaultPlan.parse("0:stagnate-solver", seed=0)
        result, _ = self._scan(small_case, monkeypatch, fault_plan=plan)
        assert result.degradation.degraded
        self._assert_record_has_every_stage_once(result)
        names = [stage for stage, _, _, _ in result.record.timeline]
        assert names[:4] == self.STAGES[:4]
        assert names[4] == "coarse-fem fallback"
        assert result.record.counts("tissue classification")["band_voxels"] > 0
        assert result.record.counts("biomechanical simulation") == {}
        assert any(n.startswith("resilience: ") for n in result.timeline.notes)

    def test_same_seed_gives_equal_counts_in_the_journal_form(self, small_case, monkeypatch):
        first, _ = self._scan(small_case, monkeypatch)
        second, _ = self._scan(small_case, monkeypatch)
        counts = [
            [(stage, c) for stage, _, _, c in result.record.as_dict()["timeline"]]
            for result in (first, second)
        ]
        assert counts[0] == counts[1]
        assert all(c for _, c in counts[0])
