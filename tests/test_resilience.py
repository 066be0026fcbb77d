"""Resilience layer: fault injection, escalation, graceful degradation.

Every fault class in :mod:`repro.resilience.faults` must produce a
*deterministic* outcome — the same plan, seed and case always lands on
the same degradation level — and no injected fault may abort a session
or poison its cross-scan state (the solve-context cache, prototypes).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import IntraoperativePipeline
from repro.core.session import SurgicalSession
from repro.imaging.volume import ImageVolume
from repro.parallel.simulation import simulate_parallel
from repro.parallel.solver import PIPELINE_PRECONDITIONER
from repro.persist import ScanSummary
from repro.resilience import (
    DegradationLevel,
    FaultPlan,
    ResiliencePolicy,
    StageGuard,
    check_displacement_field,
    parse_level,
    solve_with_escalation,
    synthetic_simulation,
)
from repro.resilience import escalation
from repro.solver import preconditioner
from repro.util import (
    ConvergenceError,
    ReproError,
    ValidationError,
    checksum_array,
)


def fast_config(**overrides) -> PipelineConfig:
    """A pipeline config sized for the 32^3 test phantom."""
    defaults = dict(
        mesh_cell_mm=9.0,
        n_ranks=2,
        rigid_levels=1,
        rigid_max_iter=2,
        rigid_samples=2000,
        surface_iterations=60,
        prototypes_per_class=20,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


def run_session(case, config: PipelineConfig, n_scans: int = 2) -> SurgicalSession:
    pipeline = IntraoperativePipeline(config)
    session = SurgicalSession.begin(pipeline, case.preop_mri, case.preop_labels)
    for _ in range(n_scans):
        session.process(case.intraop_mri)
    return session


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse("0:stall-rank;1:kill-rank=1;2:scan-nan=0.1", seed=5)
        assert len(plan.specs) == 3
        kinds = [s.kind for s in plan.for_scan(1)]
        assert kinds == ["kill-rank"]
        assert plan.for_scan(1)[0].param == 1.0
        assert "scan-nan=0.1" in plan.describe()

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            FaultPlan.parse("0:meteor-strike", seed=0)

    def test_one_shot_faults_are_consumed(self):
        plan = FaultPlan.parse("0:kill-rank", seed=0)
        assert plan.peek(0, "kill-rank") is not None
        spec = plan.take(0, "kill-rank")
        assert spec is not None and spec.triggered
        # Consumed: neither visible nor takeable a second time.
        assert plan.peek(0, "kill-rank") is None
        assert plan.take(0, "kill-rank") is None
        assert plan.log == [spec.describe()]

    def test_persistent_fault_survives_take(self):
        plan = FaultPlan.parse("0:stagnate-solver", seed=0)
        assert plan.take(0, "stagnate-solver") is not None
        assert plan.take(0, "stagnate-solver") is not None

    def test_corrupt_volume_identity_and_determinism(self):
        rng = np.random.default_rng(0)
        volume = ImageVolume(rng.random((8, 8, 8)).astype(np.float64))
        clean_plan = FaultPlan.parse("3:scan-nan=0.2", seed=9)
        # Scans without scan faults get the very same object back.
        assert clean_plan.corrupt_volume(volume, scan=0) is volume
        a = FaultPlan.parse("0:scan-nan=0.2", seed=9).corrupt_volume(volume, 0)
        b = FaultPlan.parse("0:scan-nan=0.2", seed=9).corrupt_volume(volume, 0)
        assert a is not volume
        assert np.array_equal(np.isnan(a.data), np.isnan(b.data))
        assert np.isnan(a.data).any()


class TestStageGuard:
    def test_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise ValidationError("transient")
            return "ok"

        guard = StageGuard("stage", attempts=3)
        assert guard.run(flaky) == "ok"
        assert guard.last_report.attempts == 2
        assert guard.last_report.errors

    def test_exhausted_retries_reraise_with_stage(self):
        guard = StageGuard("rigid registration", attempts=2)

        def broken():
            raise ValidationError("always")

        with pytest.raises(ValidationError) as excinfo:
            guard.run(broken)
        assert getattr(excinfo.value, "stage", None) == "rigid registration"
        assert guard.last_report.attempts == 2

    def test_validator_rejects_bad_output(self):
        guard = StageGuard(
            "validated",
            attempts=1,
            validator=lambda out: check_displacement_field(out, 1.0, name="u"),
        )
        with pytest.raises(ReproError):
            guard.run(lambda: np.full((4, 3), 99.0))


class TestPolicy:
    def test_parse_level(self):
        assert parse_level("rigid-only") is DegradationLevel.RIGID_ONLY
        assert parse_level("full-fem") is DegradationLevel.FULL_FEM
        with pytest.raises(ValidationError):
            parse_level("nonsense")

    def test_allows_is_monotone(self):
        policy = ResiliencePolicy(max_degradation=DegradationLevel.COARSE_FEM)
        assert policy.allows(DegradationLevel.FULL_FEM)
        assert policy.allows(DegradationLevel.COARSE_FEM)
        assert not policy.allows(DegradationLevel.PREVIOUS_FIELD)
        assert not policy.allows(DegradationLevel.RIGID_ONLY)


class TestSyntheticContracts:
    def test_zero_rhs_contract(self, brain_mesh):
        """The stub simulation honors the solver's zero-RHS contract:
        converged, zero iterations, ``history == [0.0]``."""
        sim = synthetic_simulation(np.zeros((brain_mesh.n_nodes, 3)))
        assert sim.solver.converged
        assert sim.solver.iterations == 0
        assert sim.solver.history == [0.0]
        assert sim.cache_stats is None


class TestEscalationLadder:
    def test_clean_solve_takes_one_rung(self, brain_mesh, brain_bc):
        outcome = solve_with_escalation(brain_mesh, brain_bc, tol=1e-7)
        assert outcome.succeeded
        assert outcome.rungs_tried == ["cg"]
        assert not outcome.escalated

    def test_stagnation_exhausts_every_rung(self, brain_mesh, brain_bc):
        plan = FaultPlan.parse("0:stagnate-solver", seed=0)
        outcome = solve_with_escalation(
            brain_mesh, brain_bc, tol=1e-7, faults=plan, scan_index=0
        )
        assert not outcome.succeeded
        assert outcome.rungs_tried == ["cg"]
        assert "exhausted" in outcome.cause
        assert all(not a.ok for a in outcome.attempts)

    def test_stagnation_makes_one_solve_attempt(self, brain_mesh, brain_bc, monkeypatch):
        """A stagnating scan is not solved twice before it degrades."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return simulate_parallel(*args, **kwargs)

        monkeypatch.setattr(escalation, "simulate_parallel", counted)
        plan = FaultPlan.parse("0:stagnate-solver", seed=0)
        outcome = solve_with_escalation(
            brain_mesh, brain_bc, n_ranks=2, tol=1e-7, faults=plan, scan_index=0
        )
        assert not outcome.succeeded and not outcome.rank_failed
        assert len(calls) == 1

    def test_deadline_skips_the_second_rung(self, brain_mesh, brain_bc):
        plan = FaultPlan.parse("0:kill-rank=1", seed=0)
        outcome = solve_with_escalation(
            brain_mesh, brain_bc, n_ranks=2, tol=1e-7, deadline_s=0.0,
            faults=plan, scan_index=0,
        )
        assert not outcome.succeeded
        assert outcome.rank_failed
        assert outcome.rungs_tried == ["cg"]
        assert "deadline" in outcome.cause
        assert outcome.cause.endswith("rungs not tried: cg@1")

    def test_kill_rank_triggers_resource_substitution(self, brain_mesh, brain_bc):
        plan = FaultPlan.parse("0:kill-rank=1", seed=0)
        outcome = solve_with_escalation(
            brain_mesh, brain_bc, n_ranks=2, tol=1e-7, faults=plan, scan_index=0
        )
        assert outcome.succeeded
        assert outcome.rank_failed
        assert outcome.attempts[0].error is not None
        assert "RankFailure" in outcome.attempts[0].error
        # Rescued by the retry, on one rank.
        assert outcome.rungs_tried == ["cg", "cg@1"]
        assert outcome.simulation.system.matrix.n_ranks == 1

    def test_rank_failure_rescue_is_the_one_rank_solve(self, brain_mesh, brain_bc):
        """``cg@1`` is the pipeline's own solve on one rank (block FSAI
        and CG), bit for bit."""
        plan = FaultPlan.parse("0:kill-rank=1", seed=0)
        outcome = solve_with_escalation(
            brain_mesh, brain_bc, n_ranks=2, partitioner="coordinate_bisection",
            tol=1e-7, faults=plan, scan_index=0,
        )
        rescue = outcome.simulation.displacement
        one_rank = simulate_parallel(
            brain_mesh, brain_bc, n_ranks=1, partitioner="coordinate_bisection",
            tol=1e-7, preconditioner=PIPELINE_PRECONDITIONER,
        )
        assert one_rank.solver.iterations == outcome.attempts[-1].iterations
        assert rescue.tobytes() == one_rank.displacement.tobytes()


@pytest.fixture
def no_superlu(monkeypatch):
    """``factor_blocks``, every SuperLU factorization's one entry point,
    raises wherever a ``repro`` module has it bound."""
    original = preconditioner.factor_blocks

    def refuse(*args, **kwargs):
        raise AssertionError("factor_blocks called: a scan path factored with SuperLU")

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "factor_blocks", None) is original):
            monkeypatch.setattr(module, "factor_blocks", refuse)


class TestNoScanPathFactors:
    """The pipeline's solve, its one-rank retry and the coarse fallback
    build the block FSAI: no patient model or scan factors with SuperLU."""

    def test_a_one_rank_scan(self, small_case, no_superlu):
        session = run_session(small_case, fast_config(n_ranks=1), n_scans=1)
        (result,) = session.history
        assert result.degradation.level is DegradationLevel.FULL_FEM
        assert result.simulation.solver.converged

    @pytest.mark.faults
    def test_a_session_retry_and_coarse_fallback(self, small_case, no_superlu):
        plan = FaultPlan.parse("1:kill-rank=1;2:stagnate-solver", seed=7)
        session = run_session(small_case, fast_config(n_ranks=4, fault_plan=plan), n_scans=3)
        clean, rescued, coarse = (r.degradation for r in session.history)
        assert clean.level is DegradationLevel.FULL_FEM and clean.rungs_tried == ["cg"]
        assert session.preop.solve_context.slots["matrix"].n_ranks == 4
        assert rescued.level is DegradationLevel.FULL_FEM
        assert rescued.rungs_tried == ["cg", "cg@1"]
        assert coarse.level is DegradationLevel.COARSE_FEM
        assert session.history[2].simulation.solver.converged


@pytest.fixture(scope="module")
def brain_bc(brain_mesher):
    from repro.fem.bc import DirichletBC
    from repro.mesh.surface import extract_boundary_surface

    surface = extract_boundary_surface(brain_mesher.mesh)
    nodes = surface.mesh_nodes
    disp = np.zeros((len(nodes), 3))
    disp[:, 0] = 1.0  # uniform 1 mm push: easy, well-posed system
    return DirichletBC(nodes, disp)


@pytest.mark.faults
class TestDegradationLevels:
    """Each fault class lands on its documented degradation level."""

    def test_stagnation_degrades_to_coarse_fem(self, small_case):
        plan = FaultPlan.parse("1:stagnate-solver;1:kill-rank=1", seed=7)
        session = run_session(small_case, fast_config(fault_plan=plan), n_scans=3)
        clean0, faulty, clean2 = (r.degradation for r in session.history)
        assert clean0.level is DegradationLevel.FULL_FEM
        assert faulty.level is DegradationLevel.COARSE_FEM
        assert faulty.rungs_tried == ["cg", "cg@1"]
        assert faulty.cause and "exhausted" in faulty.cause
        assert len(faulty.faults) == 2
        # The degraded field is still a usable, finite displacement.
        assert np.isfinite(session.history[1].grid_displacement).all()
        # Scan isolation: the next clean scan returns to the fast path
        # with the shared solve-context cache intact.
        assert clean2.level is DegradationLevel.FULL_FEM
        assert session.history[2].simulation.cache_hit

    def test_unusable_scan_falls_back_to_previous_field(self, small_case):
        plan = FaultPlan.parse("1:scan-nan=0.5", seed=3)
        session = run_session(small_case, fast_config(fault_plan=plan))
        report = session.history[1].degradation
        assert report.level is DegradationLevel.PREVIOUS_FIELD
        assert "unusable" in report.cause
        # Scan 0 is superseded, so the session holds its summary: the
        # re-applied field is the one that summary recorded and re-derives.
        previous = session.history[0]
        assert isinstance(previous, ScanSummary)
        reapplied = session.history[1].grid_displacement
        assert checksum_array(reapplied) == previous.record.grid_sha
        assert np.array_equal(reapplied, previous.grid_on(session.preop))

    def test_unusable_first_scan_degrades_to_rigid_only(self, small_case):
        plan = FaultPlan.parse("0:scan-nan=0.5", seed=3)
        pipeline = IntraoperativePipeline(fast_config(fault_plan=plan))
        session = SurgicalSession.begin(
            pipeline, small_case.preop_mri, small_case.preop_labels
        )
        first = session.process(small_case.intraop_mri)
        assert first.degradation.level is DegradationLevel.RIGID_ONLY
        assert np.all(first.grid_displacement == 0.0)
        # Zero-RHS solver contract survives the stubbed simulation.
        assert first.simulation.solver.history == [0.0]
        assert first.simulation.solver.converged
        second = session.process(small_case.intraop_mri)
        # Superseded, the degraded scan is a summary without a dense field:
        # zero nodal displacement gives the zero grid back.
        kept = session.history[0]
        assert isinstance(kept, ScanSummary)
        assert kept.degradation is first.degradation
        assert kept.grid_displacement is None and kept.record.solver_converged
        assert np.array_equal(kept.grid_on(session.preop), first.grid_displacement)
        # The session recovers completely on the next good acquisition.
        assert second.degradation.level is DegradationLevel.FULL_FEM
        assert second.simulation.solver.iterations > 0

    def test_light_corruption_is_sanitized_in_place(self, small_case):
        plan = FaultPlan.parse("1:scan-nan=0.02", seed=3)
        session = run_session(small_case, fast_config(fault_plan=plan))
        result = session.history[1]
        assert result.degradation.level is DegradationLevel.FULL_FEM
        assert any("input hardening" in n for n in result.timeline.notes)
        assert any("fault injected" in n for n in result.timeline.notes)

    def test_max_degradation_bound_reraises(self, small_case):
        plan = FaultPlan.parse("0:stagnate-solver", seed=7)
        config = fast_config(fault_plan=plan)
        config.resilience.max_degradation = DegradationLevel.FULL_FEM
        pipeline = IntraoperativePipeline(config)
        session = SurgicalSession.begin(
            pipeline, small_case.preop_mri, small_case.preop_labels
        )
        with pytest.raises(ConvergenceError) as excinfo:
            session.process(small_case.intraop_mri)
        # S1: the error carries its provenance everywhere.
        assert excinfo.value.solver == "escalation"
        assert excinfo.value.stage == "biomechanical simulation"


@pytest.mark.faults
class TestSessionContinuity:
    def test_degraded_scan_never_aborts_or_poisons(self, small_case):
        plan = FaultPlan.parse("1:stagnate-solver", seed=7)
        session = run_session(small_case, fast_config(fault_plan=plan), n_scans=3)
        assert session.n_scans == 3
        labels = [r.degradation.label for r in session.history]
        assert labels == ["full-fem", "coarse-fem", "full-fem"]
        table = session.summary_table()
        assert "coarse-fem" in table and "result" in table

    def test_invalidate_resets_cache_stats(self, small_case):
        session = run_session(small_case, fast_config())
        preop = session.preop
        assert preop.solve_context is not None
        assert preop.solve_context.stats.hits > 0
        session.invalidate_solve_context()
        stats = preop.solve_context.stats
        assert (stats.hits, stats.misses, stats.invalidations) == (0, 0, 0)
