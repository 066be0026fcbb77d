"""Tests for SurgicalSession and the timeline Gantt rendering."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import IntraoperativePipeline
from repro.core.session import SurgicalSession
from repro.core.timeline import Timeline
from repro.fem import SolveContext
from repro.imaging.phantom import make_neurosurgery_case
from repro.serving import CaseRequest
from repro.serving.pool import _serve_case
from repro.util import ValidationError
from repro.util.memory import LRUStore


class TestGantt:
    def test_empty(self):
        assert "empty" in Timeline().as_gantt()

    def test_bars_proportional(self):
        tl = Timeline()
        tl.add("short", 1.0)
        tl.add("long", 9.0)
        text = tl.as_gantt(width=40)
        lines = text.splitlines()
        short_bar = lines[2].split("|")[1]
        long_bar = lines[3].split("|")[1]
        assert long_bar.count("#") > 5 * short_bar.count("#")

    def test_stages_sequential(self):
        tl = Timeline()
        tl.add("a", 5.0)
        tl.add("b", 5.0)
        text = tl.as_gantt(width=20)
        a_line, b_line = text.splitlines()[2:4]
        # b starts roughly where a ends.
        a_bar = a_line.split("| ")[1]
        b_bar = b_line.split("| ")[1]
        assert a_bar.index("#") < b_bar.index("#")

    def test_title_included(self):
        tl = Timeline()
        tl.add("x", 1.0)
        assert tl.as_gantt(title="The Timeline").startswith("The Timeline")


@pytest.fixture(scope="module")
def session_env():
    case1 = make_neurosurgery_case(shape=(32, 32, 24), shift_mm=3.0, seed=51)
    case2 = make_neurosurgery_case(shape=(32, 32, 24), shift_mm=5.0, seed=52)
    cfg = PipelineConfig(
        mesh_cell_mm=8.0, rigid_max_iter=1, rigid_samples=2000, surface_iterations=80
    )
    pipeline = IntraoperativePipeline(cfg)
    return case1, case2, pipeline


class TestSurgicalSession:
    def test_begin_builds_preop(self, session_env):
        case1, _, pipeline = session_env
        session = SurgicalSession.begin(pipeline, case1.preop_mri, case1.preop_labels)
        assert session.preop.mesher.mesh.n_nodes > 0
        assert session.n_scans == 0

    def test_prototypes_persist_across_scans(self, session_env):
        case1, case2, pipeline = session_env
        session = SurgicalSession.begin(pipeline, case1.preop_mri, case1.preop_labels)
        first = session.process(case1.intraop_mri)
        second = session.process(case2.intraop_mri)
        assert session.n_scans == 2
        assert np.array_equal(
            first.prototypes.points_world, second.prototypes.points_world
        )

    def test_latest_and_summary(self, session_env):
        case1, _, pipeline = session_env
        session = SurgicalSession.begin(pipeline, case1.preop_mri, case1.preop_labels)
        with pytest.raises(ValidationError):
            session.latest()
        result = session.process(case1.intraop_mri)
        assert session.latest() is result
        summary = session.summary_table()
        assert "Surgical session summary" in summary
        assert "GMRES iters" in summary

    def test_empty_summary(self, session_env):
        case1, _, pipeline = session_env
        session = SurgicalSession.begin(pipeline, case1.preop_mri, case1.preop_labels)
        assert "no scans" in session.summary_table()


class TestGradientForceCorrespondence:
    def test_gradient_force_pipeline_variant(self):
        """The raw-image force variant produces comparable displacements."""
        from repro.imaging.phantom import Tissue
        from repro.mesh.generator import mesh_labeled_volume
        from repro.mesh.surface import extract_boundary_surface
        from repro.surface.correspondence import surface_correspondence
        from tests.conftest import BRAIN_LABELS

        case = make_neurosurgery_case(shape=(40, 40, 32), shift_mm=6.0, seed=53)
        mesher = mesh_labeled_volume(case.preop_labels, 7.0, BRAIN_LABELS)
        surf = extract_boundary_surface(mesher.mesh)
        mask1 = case.brain_mask()
        mask2 = np.isin(
            case.intraop_labels.data, list(BRAIN_LABELS) + [int(Tissue.RESECTION)]
        )
        dist = surface_correspondence(surf, mask1, mask2, case.preop_labels)
        grad = surface_correspondence(
            surf,
            mask1,
            mask2,
            case.preop_labels,
            force="gradient",
            reference_image=case.preop_mri,
            target_image=case.intraop_mri,
            expected_gray=130.0,
        )
        # Both localize the deformation in the same place with correlated
        # magnitudes (the gradient force is noisier).
        corr = np.corrcoef(dist.magnitudes, grad.magnitudes)[0, 1]
        assert corr > 0.4

    def test_gradient_force_requires_images(self, small_case, brain_mesher):
        from repro.mesh.surface import extract_boundary_surface
        from repro.surface.correspondence import surface_correspondence

        surf = extract_boundary_surface(brain_mesher.mesh)
        mask = small_case.brain_mask()
        with pytest.raises(ValidationError):
            surface_correspondence(
                surf, mask, mask, small_case.preop_labels, force="gradient"
            )

    def test_unknown_force_rejected(self, small_case, brain_mesher):
        from repro.mesh.surface import extract_boundary_surface
        from repro.surface.correspondence import surface_correspondence

        surf = extract_boundary_surface(brain_mesher.mesh)
        mask = small_case.brain_mask()
        with pytest.raises(ValidationError):
            surface_correspondence(
                surf, mask, mask, small_case.preop_labels, force="levelset"
            )


def order_config() -> PipelineConfig:
    return PipelineConfig(
        mesh_cell_mm=8.0,
        n_ranks=2,
        rigid_max_iter=1,
        rigid_samples=2000,
        surface_iterations=80,
    )


@pytest.fixture(scope="module")
def one_patient():
    """Four cases whose intraoperative scans serve as one patient's scans.

    The phantom's anatomy does not depend on the seed, so the first
    case's preoperative volumes stand for the patient; the seeds vary the
    scanner noise, which keeps the four fields distinct.
    """
    return [
        make_neurosurgery_case(shape=(32, 32, 24), shift_mm=shift, seed=seed)
        for shift, seed in zip((3.0, 5.0, 7.0, 9.0), (61, 62, 63, 64))
    ]


def _no_reset(self):
    raise AssertionError("a solve context was reset between cases")


class TestScanOrderIndependence:
    """A scan's field depends on the patient model, scan 0 and that scan only."""

    def test_later_scans_get_the_same_field_in_any_order(
        self, one_patient, monkeypatch
    ):
        monkeypatch.setattr(SolveContext, "reset_warm_state", _no_reset)
        preop_case = one_patient[0]
        pipeline = IntraoperativePipeline(order_config())
        # Both sessions share one model, as a worker's cache hands it on.
        preop = pipeline.prepare_preoperative(
            preop_case.preop_mri, preop_case.preop_labels
        )
        runs = []
        for order in ((0, 1, 2, 3), (0, 3, 1, 2)):
            session = SurgicalSession.begin(
                pipeline, preop_case.preop_mri, preop_case.preop_labels, preop=preop
            )
            shas = {}
            for k in order:
                result = session.process(one_patient[k].intraop_mri)
                assert result.simulation.cache_hit
                shas[k] = result.field_shas()[0]
            runs.append(shas)
        assert runs[0] == runs[1]
        assert len(set(runs[0].values())) == 4

    def test_cached_model_serves_a_new_case_its_first_scan_fields(
        self, one_patient, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(SolveContext, "reset_warm_state", _no_reset)
        preop_case = one_patient[0]
        cache = LRUStore(2)

        def serve(case_id, scans):
            request = CaseRequest(
                case_id=case_id,
                preop_mri=preop_case.preop_mri,
                preop_labels=preop_case.preop_labels,
                scans=[one_patient[k].intraop_mri for k in scans],
                config=order_config(),
            )
            return _serve_case(request, cache, threading.Event(), str(tmp_path), 0)

        assert serve("case-a", (0, 1)).ok
        later = serve("case-b", (2,))
        assert later.ok and later.preop_cache_hit
        fresh = SurgicalSession.begin(
            IntraoperativePipeline(order_config()),
            preop_case.preop_mri,
            preop_case.preop_labels,
        )
        expected = fresh.process(one_patient[2].intraop_mri).field_shas()[0]
        assert later.scans[0].nodal_sha == expected
