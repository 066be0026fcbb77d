"""The intraoperative nonrigid registration pipeline.

Implements the paper's Figure 1 schema end to end:

* :meth:`IntraoperativePipeline.prepare_preoperative` — performed before
  surgery, when time is plentiful: take the preoperative MRI and its
  (manual/semi-automatic) segmentation, build the per-class saturated
  distance localization models, generate the multi-material tetrahedral
  brain mesh, and extract its boundary surface.

* :meth:`IntraoperativePipeline.process_scan` — performed per
  intraoperative acquisition, under operating-room time pressure: MI
  rigid registration, prototype-based k-NN tissue classification,
  two-phase active-surface displacement detection, (virtually parallel)
  biomechanical FEM simulation, and resampling of the preoperative data
  through the recovered volumetric deformation. Every stage's duration
  is recorded in a :class:`~repro.core.timeline.Timeline` (Fig. 6).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.timeline import Timeline
from repro.fem.bc import DirichletBC
from repro.fem.context import SolveContext
from repro.imaging.metrics import mutual_information, rms_difference
from repro.imaging.phantom import Tissue
from repro.imaging.resample import invert_displacement_field, trilinear_sample, warp_volume
from repro.imaging.volume import ImageVolume
from repro.machines.spec import MachineSpec
from repro.mesh.generator import GridTetraMesher, mesh_labeled_volume, mesh_with_target_nodes
from repro.mesh.surface import TriangleSurface, extract_boundary_surface
from repro.obs.budget import BudgetMonitor, ScanVerdict
from repro.obs.export import iterations_per_decade
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.parallel.simulation import ParallelSimulation, prepare_solve_context
from repro.registration.rigid import RegistrationResult, register_rigid
from repro.registration.transform import RigidTransform
from repro.resilience.degrade import (
    DegradationReport,
    coarse_fem_fallback,
    previous_field_fallback,
    rigid_only_fallback,
    stub_correspondence,
)
from repro.resilience.escalation import EscalationOutcome, solve_with_escalation
from repro.resilience.guards import StageGuard, check_displacement_field
from repro.resilience.policy import DegradationLevel
from repro.segmentation.atlas import LocalizationModel
from repro.segmentation.knn import KNNClassifier
from repro.segmentation.prototypes import PrototypeSet, select_prototypes
from repro.surface.correspondence import (
    CorrespondenceResult,
    snap_surface,
    surface_correspondence,
)
from repro.surface.evolve import ActiveSurfaceResult
from repro.util import ConvergenceError, ReproError, ValidationError
from repro.util.atomicio import checksum_array
from repro.util.memory import reachable_array_bytes

#: Share of non-finite intraoperative voxels up to which a resilient
#: pipeline sanitizes the scan; past it the acquisition is unusable and
#: the scan degrades (previous field / rigid-only).
MAX_NONFINITE_FRACTION = 0.25


@dataclass
class PreoperativeModel:
    """Everything prepared before surgery.

    Attributes
    ----------
    mri / labels:
        The preoperative acquisition and its segmentation (the
        patient-specific atlas).
    localization:
        Saturated-distance localization models per tissue class.
    mesher:
        The tetrahedral brain mesh with its grid point-location index.
    surface:
        The brain boundary surface (links surface vertices to mesh
        nodes for the boundary conditions).
    brain_mask:
        Boolean brain mask of the preoperative segmentation.
    solve_context:
        Precomputed scan-invariant FEM state (assembled stiffness,
        Dirichlet-elimination structure, preconditioner factors) built
        during the preoperative phase so each intraoperative simulation
        is a data-only fast path.
    snapped / snap_params:
        The active surface's snap phase (mesh boundary projected onto
        the preoperative brain mask) and the ``cap_mm`` / ``iterations``
        / ``step_size`` it was run with. The snap never sees the
        intraoperative scan, so it is computed once here; a pipeline
        whose snap parameters differ recomputes it per scan (and says so
        in the timeline).
        Only vertex positions are kept — the force-field volumes are not.
    """

    mri: ImageVolume
    labels: ImageVolume
    localization: LocalizationModel
    mesher: GridTetraMesher
    surface: TriangleSurface
    brain_mask: np.ndarray
    solve_context: SolveContext | None = None
    snapped: ActiveSurfaceResult | None = None
    snap_params: dict[str, float] | None = None

    def invalidate_solve_context(self) -> None:
        """Force a rebuild of the cached FEM state on the next scan.

        Call after editing the mesh or materials in place; fingerprint
        checking also catches such changes automatically, but an explicit
        invalidation makes the intent visible. The hit/miss counters are
        zeroed so the session never reports stale hit ratios across the
        rebuild boundary. The mesher's located voxel grid goes with it.
        """
        if self.solve_context is not None:
            self.solve_context.invalidate(reset_stats=True)
        self.mesher.located_grid = None

    def nbytes(self) -> int:
        """Bytes of array buffers the model keeps alive, each buffer once.

        What a cache pays for holding it (SuperLU factors estimated, see
        :func:`repro.util.memory.reachable_array_bytes`); the resident
        set grows by more — DESIGN.md, "What a patient model holds".
        """
        return reachable_array_bytes(self)


@dataclass
class IntraoperativeResult:
    """Output of one intraoperative processing round.

    Attributes
    ----------
    deformed_mri:
        Preoperative MRI deformed onto the new brain configuration.
    nodal_displacement:
        ``(n_nodes, 3)`` FEM displacement at the mesh nodes (mm).
    grid_displacement:
        Dense forward displacement on the preop grid (mm).
    segmentation:
        Intraoperative k-NN tissue classification.
    rigid:
        Rigid registration result (``None`` when skipped).
    correspondence:
        Active-surface output (surface displacements).
    simulation:
        Parallel FEM simulation record (virtual times, solver stats).
    timeline:
        Per-stage wall-clock timings (Fig. 6).
    match_rigid_rms / match_simulated_rms:
        RMS intensity difference against the intraoperative scan inside
        the brain region, before (rigid-only) and after the
        biomechanical deformation — the paper's Fig. 4(d) comparison,
        quantified.
    budget_verdict:
        Real-time budget verdict for this scan (``None`` when the
        pipeline ran without a :class:`repro.obs.BudgetMonitor`).
    degradation:
        :class:`repro.resilience.DegradationReport` describing what the
        resilience layer did for this scan — level delivered, escalation
        rungs tried, injected faults, recovery cost. A scan run with
        resilience disabled carries one too (always ``full-fem``: it
        either delivers that or raises); only a restored result may
        have ``None``.
    restored:
        ``True`` when this result was reconstructed from a session
        checkpoint rather than computed in this process. Restored
        results carry the journaled essentials (displacements, match
        metrics, timeline) but synthetic solver/segmentation stand-ins;
        ``deformed_mri`` is only rehydrated on demand.
    """

    deformed_mri: ImageVolume
    nodal_displacement: np.ndarray
    grid_displacement: np.ndarray
    segmentation: ImageVolume
    rigid: RegistrationResult | None
    correspondence: CorrespondenceResult
    simulation: ParallelSimulation
    timeline: Timeline
    prototypes: PrototypeSet
    match_rigid_rms: float
    match_simulated_rms: float
    match_rigid_mi: float
    match_simulated_mi: float
    budget_verdict: ScanVerdict | None = None
    degradation: DegradationReport | None = None
    restored: bool = False
    _field_shas: tuple[str, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def field_shas(self) -> tuple[str, str]:
        """``(nodal_sha, grid_sha)``: the two fields' digests, computed once.

        Each costs a pass over its field (the grid one is 3 x voxels
        float64), and a scan's serving outcome, its checkpoint commit and
        the summary a session keeps of it all record the same two.
        """
        if self._field_shas is None:
            self._field_shas = (
                checksum_array(np.asarray(self.nodal_displacement, dtype=float)),
                checksum_array(np.asarray(self.grid_displacement, dtype=float)),
            )
        return self._field_shas


@dataclass
class IntraoperativePipeline:
    """End-to-end implementation of the paper's registration pipeline.

    Observability hooks (all optional, all default-off):

    tracer:
        Hierarchical trace spans are recorded here (scan stages, FEM
        assembly phases, solver restarts); ``None`` uses the ambient
        tracer from :func:`repro.obs.get_tracer` — a no-op unless one
        was installed via :func:`repro.obs.use_tracer`.
    budget:
        A :class:`repro.obs.BudgetMonitor`: stage durations are fed to
        it live during :meth:`process_scan`, warnings land in the
        timeline notes, and the per-scan verdict is attached to the
        result (and the session summary).
    metrics:
        A :class:`repro.obs.MetricsRegistry` absorbing the run's
        numbers: mesh sizes, GMRES iterations/restarts/residual,
        solve-context cache hits/misses/hit-ratio, per-scan seconds.
    """

    config: PipelineConfig = field(default_factory=PipelineConfig)
    machine: MachineSpec | None = None
    tracer: Tracer | None = field(default=None, repr=False)
    budget: BudgetMonitor | None = field(default=None, repr=False)
    metrics: MetricsRegistry | None = field(default=None, repr=False)

    def _tracer(self) -> Tracer:
        return self.tracer if self.tracer is not None else get_tracer()

    # -- preoperative ---------------------------------------------------------

    def prepare_preoperative(
        self, mri: ImageVolume, labels: ImageVolume
    ) -> PreoperativeModel:
        """Build the patient-specific model from the preoperative data."""
        if not mri.same_grid_as(labels):
            raise ValidationError("preoperative MRI and labels must share a grid")
        cfg = self.config
        tracer = self._tracer()
        with use_tracer(tracer), tracer.span(
            "prepare_preoperative", kind="pipeline", period="preoperative"
        ):
            with tracer.span("localization models", kind="stage"):
                localization = LocalizationModel.from_labels(
                    labels, cfg.segmentation_classes, cfg.localization_cap_mm
                )
            with tracer.span("mesh generation", kind="stage") as mesh_span:
                if cfg.target_mesh_nodes is not None:
                    mesher = mesh_with_target_nodes(
                        labels, cfg.target_mesh_nodes, cfg.brain_labels
                    )
                else:
                    mesher = mesh_labeled_volume(
                        labels, cfg.mesh_cell_mm, cfg.brain_labels
                    )
                surface = extract_boundary_surface(mesher.mesh)
                mesh_span.set(
                    n_nodes=int(mesher.mesh.n_nodes),
                    n_elements=int(mesher.mesh.n_elements),
                )
            brain_mask = np.isin(labels.data, cfg.brain_labels)
            with tracer.span("surface snap", kind="stage") as snap_span:
                snap_params = self._snap_params()
                snapped = snap_surface(surface, brain_mask, labels, **snap_params)
                snap_span.set(
                    iterations=snapped.iterations,
                    converged=snapped.converged,
                    residual_mm=snapped.mean_residual_mm,
                    vertices=int(surface.n_vertices),
                )
            # Preoperative precomputation: partitioning, assembly,
            # elimination slicing and preconditioner factorization all
            # happen now, while "time is plentiful" — process_scan only
            # updates the right-hand side and solves.
            with tracer.span("solve context precompute", kind="stage"):
                solve_context = prepare_solve_context(
                    mesher.mesh,
                    surface.mesh_nodes,
                    cfg.n_ranks,
                    materials=cfg.materials,
                    partitioner=cfg.partitioner,
                )
        if self.metrics is not None:
            self.metrics.gauge("mesh.nodes").set(mesher.mesh.n_nodes)
            self.metrics.gauge("mesh.elements").set(mesher.mesh.n_elements)
            self.metrics.gauge("mesh.dof").set(mesher.mesh.n_dof)
        return PreoperativeModel(
            mri=mri,
            labels=labels,
            localization=localization,
            mesher=mesher,
            surface=surface,
            brain_mask=brain_mask,
            solve_context=solve_context,
            snapped=snapped,
            snap_params=snap_params,
        )

    def _snap_params(self) -> dict[str, float]:
        """``snap_surface``'s keyword arguments; also the stored snap's key."""
        cfg = self.config
        return {
            "cap_mm": cfg.surface_cap_mm,
            "iterations": cfg.surface_iterations,
            "step_size": cfg.surface_step,
        }

    # -- intraoperative ---------------------------------------------------------

    def process_scan(
        self,
        intraop_mri: ImageVolume,
        preop: PreoperativeModel,
        prototypes: PrototypeSet | None = None,
        reference_labels: ImageVolume | None = None,
        scan_index: int = 0,
        previous: IntraoperativeResult | None = None,
    ) -> IntraoperativeResult:
        """Register the preoperative model onto a new intraoperative scan.

        Parameters
        ----------
        intraop_mri:
            The newly acquired scan.
        preop:
            Output of :meth:`prepare_preoperative`.
        prototypes:
            Prototype set from a previous scan of the same procedure
            (their recorded locations are re-sampled on the new scan —
            the paper's automatic statistical-model update). When
            ``None``, prototypes are selected fresh using
            ``reference_labels`` (defaults to the preoperative
            segmentation, standing in for the clinician's five minutes
            of interaction on the first scan).
        scan_index:
            0-based index of this scan within the session; keys the
            deterministic :class:`repro.resilience.FaultPlan` (if any)
            and appears in resilience reports.
        previous:
            The previous scan's result, enabling the ``previous-field``
            degradation level when this scan cannot be processed.

        Every stage runs under a :class:`repro.resilience.StageGuard`
        and the solve through the escalation ladder. With
        ``config.resilience.enabled`` (the default) a stage is retried,
        the solve climbs the ladder on failure, and an unprocessable
        scan degrades gracefully (coarse FEM / previous field /
        rigid-only) instead of aborting — the attached
        :class:`repro.resilience.DegradationReport` records what
        happened. ``enabled = False`` is the fail-fast configuration of
        the same runner: one attempt per stage, the ladder's first rung
        only (an unconverged or diverged solve raises), no degradation,
        non-finite input rejected — each error propagates as raised.

        When the pipeline carries observability hooks (``tracer``,
        ``budget``, ``metrics`` — or an ambient tracer installed via
        :func:`repro.obs.use_tracer`), the scan is wrapped in a
        ``process_scan`` span with one child span per stage, stage
        durations are checked live against the time budget (warnings
        appear in the timeline notes the moment a stage overruns), and
        the run's numbers land in the metrics registry.
        """
        tracer = self._tracer()
        monitor = self.budget
        timeline = Timeline(tracer=tracer)
        if monitor is not None:
            monitor.begin_scan()

            def _observe_budget(entry) -> None:
                warning = monitor.observe_stage(entry.stage, entry.seconds)
                if warning is not None:
                    timeline.note("budget: " + warning)

            timeline.observers.append(_observe_budget)

        # Install the pipeline's tracer as ambient for the scan so the
        # deep modules (FEM assembly, Krylov solvers, preconditioners)
        # nest their spans under the stage spans without plumbing.
        with use_tracer(tracer), tracer.span(
            "process_scan", kind="pipeline"
        ) as scan_span:
            result = self._process_scan(
                intraop_mri,
                preop,
                prototypes,
                reference_labels,
                timeline,
                scan_index=scan_index,
                previous=previous,
            )
            if result.degradation is not None and result.degradation.degraded:
                scan_span.set(degradation=result.degradation.label)
            if monitor is not None:
                verdict = monitor.finish_scan()
                result.budget_verdict = verdict
                timeline.note(
                    f"budget verdict: {verdict.label} "
                    f"(headroom {verdict.headroom_seconds:+.1f} s "
                    f"of {verdict.scan_budget:.0f} s)"
                )
                scan_span.set(budget=verdict.label)

        self._record_scan_metrics(result, timeline)
        return result

    def _record_scan_metrics(self, result: IntraoperativeResult, timeline: Timeline) -> None:
        """Land one scan's numbers in the metrics registry (if attached)."""
        if self.metrics is None:
            return
        m = self.metrics
        m.counter("pipeline.scans").inc()
        m.histogram("scan.seconds").observe(timeline.total("intraoperative"))
        m.record_solver_result(result.simulation.solver)
        if result.simulation.cache_stats is not None:
            m.record_cache_stats(result.simulation.cache_stats)
        if result.degradation is not None:
            m.counter(f"resilience.level.{result.degradation.label}").inc()
            if result.degradation.escalated:
                m.counter("resilience.escalations").inc()
            if result.degradation.faults:
                m.counter("resilience.faults_triggered").inc(
                    len(result.degradation.faults)
                )

    # -- the five stages ---------------------------------------------------------

    def _stage_rigid(
        self, intraop_mri: ImageVolume, preop: PreoperativeModel, timeline: Timeline
    ) -> tuple[RegistrationResult, RigidTransform]:
        """Stage 1 — MI rigid registration: intraop points -> preop frame."""
        cfg = self.config
        with timeline.stage("rigid registration"):
            rigid_result = register_rigid(
                intraop_mri,
                preop.mri,
                levels=cfg.rigid_levels,
                max_iter=cfg.rigid_max_iter,
                max_samples=cfg.rigid_samples,
                seed=cfg.seed,
            )
            return rigid_result, rigid_result.transform

    def _stage_classify(
        self,
        intraop_mri: ImageVolume,
        preop: PreoperativeModel,
        prototypes: PrototypeSet | None,
        reference_labels: ImageVolume | None,
        transform: RigidTransform,
        timeline: Timeline,
    ) -> tuple[PrototypeSet, ImageVolume]:
        """Stage 2 — k-NN tissue classification over intensity + localization."""
        cfg = self.config
        with timeline.stage("tissue classification") as span:
            if prototypes is None:
                ref = reference_labels if reference_labels is not None else preop.labels
                prototypes = select_prototypes(
                    intraop_mri,
                    ref,
                    preop.localization,
                    classes=cfg.segmentation_classes,
                    per_class=cfg.prototypes_per_class,
                    transform=transform,
                    seed=cfg.seed,
                )
            else:
                prototypes = prototypes.update_features(
                    intraop_mri, preop.localization, transform=transform
                )
            classifier = KNNClassifier(k=cfg.knn_k).fit_prototypes(prototypes)
            segmentation = classifier.segment(
                intraop_mri, preop.localization, transform=transform
            )
            span.set(
                voxels=segmentation.data.size,
                prototypes=len(prototypes),
                k=classifier.k,
                open_share=classifier.open_share,
            )
        timeline.note(
            f"k-NN: {segmentation.data.size:,} voxels, "
            f"{100.0 * classifier.open_share:.1f} % past the majority"
        )
        return prototypes, segmentation

    def _stage_surface(
        self,
        preop: PreoperativeModel,
        segmentation: ImageVolume,
        transform: RigidTransform,
        timeline: Timeline,
    ) -> tuple[CorrespondenceResult, np.ndarray, np.ndarray]:
        """Stage 3 — two-phase active-surface displacement detection.

        The target brain mask is mapped onto the preoperative grid
        through the rigid transform, so the pipeline supports
        intraoperative grids that differ from the preoperative one
        (anisotropic scanner matrices, patient repositioning). Returns
        the correspondence, that mask and the preoperative voxel centres
        in the scan's frame (the match metrics sample there again).
        """
        cfg = self.config
        with timeline.stage("surface displacement") as span:
            preop_in_scan = transform.inverse().apply(preop.labels.voxel_centers())
            seg_on_preop = trilinear_sample(
                segmentation.astype(np.float64),
                preop_in_scan,
                fill_value=float(Tissue.AIR),
                nearest=True,
            ).astype(np.int16)
            target_mask = np.isin(seg_on_preop, cfg.intraop_brain_labels)
            snap_params = self._snap_params()
            reused = preop.snapped if preop.snap_params == snap_params else None
            correspondence = surface_correspondence(
                preop.surface,
                preop.brain_mask,
                target_mask,
                preop.labels,
                **snap_params,
                smoothing=cfg.surface_smoothing,
                snapped=reused,
            )
            tracked = correspondence.tracked
            span.set(
                track_iterations=tracked.iterations, track_converged=tracked.converged
            )
            if reused is None:
                span.set(snap_recomputed=True)
        if reused is not None:
            timeline.note(
                f"surface snap: reused preoperative snap ({reused.iterations} iterations)"
            )
        else:
            timeline.note(
                "surface snap: recomputed inside the scan "
                f"({correspondence.snapped.iterations} iterations; the model's "
                f"stored snap is for {preop.snap_params}, this pipeline needs "
                f"{snap_params})"
            )
        timeline.note(self._track_note(tracked))
        return correspondence, target_mask, preop_in_scan

    @staticmethod
    def _track_note(tracked: ActiveSurfaceResult) -> str:
        """What the track phase did; a capped evolution does not read as arrived."""
        if tracked.converged:
            return (
                f"surface track: {tracked.iterations} it, "
                f"residual {tracked.mean_residual_mm:.2f} mm"
            )
        return (
            f"surface track: stopped at the {tracked.iterations}-iteration cap "
            f"(last step {tracked.history[-1]:.3f} mm)"
        )

    def _note_cache(
        self, timeline: Timeline, preop: PreoperativeModel, simulation
    ) -> None:
        if preop.solve_context is None or simulation.cache_stats is None:
            return
        stats = simulation.cache_stats
        timeline.note(
            "solve context: "
            + ("hit (data-only fast path)" if simulation.cache_hit else "miss (rebuilt)")
            + f" [hits={stats.hits} misses={stats.misses}"
            + f" invalidations={stats.invalidations}]"
        )

    @staticmethod
    def _note_convergence(timeline: Timeline, simulation: ParallelSimulation) -> None:
        solver = simulation.solver
        rate = iterations_per_decade(solver.iterations, solver.history)
        if rate is None or not solver.rhs_norm:
            return
        timeline.note(
            f"gmres: {solver.iterations} it, {rate:.1f} it/decade, "
            f"rel. residual {solver.residual_norm / solver.rhs_norm:.1e}"
        )

    def _stage_simulate(
        self,
        preop: PreoperativeModel,
        correspondence: CorrespondenceResult,
        timeline: Timeline,
        scan_index: int,
    ) -> EscalationOutcome:
        """Stage 4 — (virtually parallel) biomechanical FEM simulation.

        Runs through the escalation ladder, which costs nothing beyond
        its first rung (the nominal ``simulate_parallel`` call) on a
        healthy system; a disabled policy stops after that rung and its
        error propagates. Emergency rungs run on isolated contexts, so
        the shared per-patient cache survives them and the next scan
        still gets its data-only fast path.
        """
        cfg = self.config
        deadline = None if self.budget is None else max(self.budget.headroom(), 1.0)
        with timeline.stage("biomechanical simulation"):
            bc = DirichletBC(preop.surface.mesh_nodes, correspondence.displacements)
            return solve_with_escalation(
                preop.mesher.mesh,
                bc,
                n_ranks=cfg.n_ranks,
                machine=self.machine,
                materials=cfg.materials,
                partitioner=cfg.partitioner,
                tol=cfg.solver_tol,
                restart=cfg.gmres_restart,
                context=preop.solve_context,
                deadline_s=deadline,
                faults=cfg.fault_plan,
                scan_index=scan_index,
                escalate=cfg.resilience.enabled,
            )

    def _stage_resample(
        self, preop: PreoperativeModel, displacement: np.ndarray, timeline: Timeline
    ) -> tuple[np.ndarray, ImageVolume]:
        """Stage 5 — deform the preop MRI onto the new configuration."""
        with timeline.stage("visualization resample"):
            grid_disp = preop.mesher.displacement_on_grid(displacement, preop.mri)
            inverse = invert_displacement_field(grid_disp, preop.mri.spacing)
            deformed = warp_volume(preop.mri, inverse, fill_value=0.0)
        return grid_disp, deformed

    def _match_metrics(
        self,
        preop: PreoperativeModel,
        intraop_mri: ImageVolume,
        deformed: ImageVolume,
        preop_in_scan: np.ndarray,
        target_mask: np.ndarray,
    ) -> tuple[float, float, float, float]:
        """Match-quality metrics (Fig. 4): rigid-only vs simulated."""
        intraop_on_preop = trilinear_sample(intraop_mri, preop_in_scan, fill_value=0.0)
        region = target_mask | preop.brain_mask
        return (
            rms_difference(preop.mri.data, intraop_on_preop, mask=region),
            rms_difference(deformed.data, intraop_on_preop, mask=region),
            mutual_information(preop.mri.data, intraop_on_preop, mask=region),
            mutual_information(deformed.data, intraop_on_preop, mask=region),
        )

    # -- the one scan orchestration --------------------------------------------

    def _process_scan(
        self,
        intraop_mri: ImageVolume,
        preop: PreoperativeModel,
        prototypes: PrototypeSet | None,
        reference_labels: ImageVolume | None,
        timeline: Timeline,
        scan_index: int = 0,
        previous: IntraoperativeResult | None = None,
    ) -> IntraoperativeResult:
        """Guarded orchestration of the five stages.

        With the policy enabled it always returns a result: image-side
        stage failures (after per-stage retries) and solve failures
        (after the escalation ladder) walk the degradation ladder; the
        only exception raised is when the required level exceeds
        ``policy.max_degradation`` — an explicit operator request for
        fail-fast beyond that point. A disabled policy is that request
        for every failure, expressed as data
        (:class:`repro.resilience.ResiliencePolicy`): one attempt per
        stage, the solve's first rung only, no rung below full FEM — so
        each stage's own error propagates as raised.
        """
        cfg = self.config
        policy = cfg.resilience
        plan = cfg.fault_plan

        # Fault injection models the world, not the pipeline: scheduled
        # faults apply whether or not resilience is enabled.
        if plan is not None:
            logged = len(plan.log)
            corrupted = plan.corrupt_volume(intraop_mri, scan_index)
            if corrupted is not intraop_mri:
                intraop_mri = corrupted
                for entry in plan.log[logged:]:
                    timeline.note(f"fault injected: {entry}")

        # Input hardening: a disabled policy rejects non-finite
        # acquisitions outright; an enabled one sanitizes small damage
        # and degrades when the scan is mostly garbage.
        unusable: str | None = None
        if intraop_mri.nonfinite_count():
            fraction = intraop_mri.nonfinite_fraction()
            if not policy.enabled:
                intraop_mri.validate_finite("intraoperative scan")
            elif fraction <= MAX_NONFINITE_FRACTION:
                intraop_mri, n_fixed = intraop_mri.sanitized()
                timeline.note(
                    f"input hardening: replaced {n_fixed} non-finite "
                    f"voxels ({fraction:.2%})"
                )
            else:
                unusable = (
                    f"intraoperative scan unusable: {fraction:.1%} non-finite "
                    f"voxels (limit {MAX_NONFINITE_FRACTION:.0%})"
                )

        report = DegradationReport()
        recovery_seconds = 0.0
        # Forced degradation floor (load shedding): the serving tier can
        # stamp a minimum rung on the case so an overloaded shard trades
        # fidelity for bounded latency instead of rejecting outright.
        forced = policy.floor

        def note(text: str) -> None:
            report.notes.append(text)
            timeline.note("resilience: " + text)

        transform = RigidTransform.identity()
        rigid_result: RegistrationResult | None = None
        segmentation: ImageVolume | None = None
        correspondence: CorrespondenceResult | None = None
        target_mask = preop_in_scan = None
        failure: ReproError | None = None

        if unusable is not None:
            failure = ValidationError(unusable)
            note(unusable)
        elif forced >= DegradationLevel.PREVIOUS_FIELD:
            # Floor deeper than coarse-FEM: the fallback needs no boundary
            # conditions, so the whole image-processing front half is
            # skipped — that is the point of shedding at this rung.
            note(f"load shed: forced {forced.label}; image stages skipped")
        else:
            # Stages 1-3 under per-stage retry guards. A failed rigid
            # registration is recoverable in place (identity transform:
            # same-frame acquisitions are the common case) unless the
            # policy is disabled; failures of classification or surface
            # detection leave no boundary conditions to simulate from
            # and divert to the degradation ladder below, which a
            # disabled policy leaves by re-raising them.
            guard = StageGuard("rigid registration", policy.stage_attempts)
            try:
                rigid_result, transform = guard.run(
                    self._stage_rigid, intraop_mri, preop, timeline
                )
            except ReproError as exc:
                if not policy.enabled:
                    raise
                recovery_seconds += guard.last_report.seconds
                transform = RigidTransform.identity()
                rigid_result = None
                note(f"rigid registration failed ({exc}); using identity transform")
            try:
                guard = StageGuard("tissue classification", policy.stage_attempts)
                prototypes, segmentation = guard.run(
                    self._stage_classify,
                    intraop_mri,
                    preop,
                    prototypes,
                    reference_labels,
                    transform,
                    timeline,
                )
                guard = StageGuard(
                    "surface displacement",
                    policy.stage_attempts,
                    validator=lambda out: check_displacement_field(
                        out[0].displacements, name="surface displacement"
                    ),
                )
                correspondence, target_mask, preop_in_scan = guard.run(
                    self._stage_surface, preop, segmentation, transform, timeline
                )
                if not correspondence.tracked.converged:
                    report.notes.append(self._track_note(correspondence.tracked))
            except ReproError as exc:
                recovery_seconds += guard.last_report.seconds
                failure = exc
                note(f"{type(exc).__name__}: {exc}")

        simulation = None
        fallback = None
        if failure is None and forced > DegradationLevel.FULL_FEM:
            report.cause = f"load shed: forced {forced.label}"
            note(f"load shed: full-resolution solve skipped (floor {forced.label})")
        if failure is None and forced == DegradationLevel.FULL_FEM:
            outcome = self._stage_simulate(preop, correspondence, timeline, scan_index)
            report.rungs_tried = outcome.rungs_tried
            recovery_seconds += sum(a.seconds for a in outcome.attempts if not a.ok)
            if outcome.succeeded:
                simulation = outcome.simulation
                self._note_cache(timeline, preop, simulation)
                self._note_convergence(timeline, simulation)
                if outcome.escalated:
                    report.cause = outcome.attempts[0].error or ""
                    note(
                        "solver escalation: "
                        + " -> ".join(
                            f"{a.rung}({'ok' if a.ok else 'fail'})"
                            for a in outcome.attempts
                        )
                    )
                if outcome.rank_failed:
                    note("rank failure: solve completed on 1 rank (no machine model)")
            else:
                failure = ConvergenceError(
                    outcome.cause or "escalation ladder exhausted",
                    solver="escalation",
                    stage="biomechanical simulation",
                )
                note(outcome.cause or "escalation ladder exhausted")

        # Stage 5 (only meaningful with a full-resolution solution; the
        # fallbacks produce their own grid field and deformed volume).
        grid_disp = None
        deformed = None
        if simulation is not None:
            guard = StageGuard("visualization resample", policy.stage_attempts)
            try:
                grid_disp, deformed = guard.run(
                    self._stage_resample, preop, simulation.displacement, timeline
                )
            except ReproError as exc:
                recovery_seconds += guard.last_report.seconds
                failure = exc
                simulation = None
                note(f"visualization resample failed: {exc}")

        # Degradation ladder: coarse FEM needs boundary conditions;
        # previous-field needs a previous scan; rigid-only always works.
        if simulation is None:
            if (
                correspondence is not None
                and policy.allows(DegradationLevel.COARSE_FEM)
                and DegradationLevel.COARSE_FEM >= forced
            ):
                t0 = time.perf_counter()
                try:
                    with timeline.stage("coarse-fem fallback"):
                        fallback = coarse_fem_fallback(
                            preop.labels,
                            preop.mri,
                            preop.mesher,
                            preop.surface,
                            correspondence.displacements,
                            brain_labels=cfg.brain_labels,
                            materials=cfg.materials,
                            cell_mm=cfg.mesh_cell_mm,
                            restart=cfg.gmres_restart,
                        )
                except ReproError as exc:
                    note(f"coarse-fem fallback failed: {exc}")
                recovery_seconds += time.perf_counter() - t0
            if (
                fallback is None
                and previous is not None
                and policy.allows(DegradationLevel.PREVIOUS_FIELD)
                and DegradationLevel.PREVIOUS_FIELD >= forced
            ):
                t0 = time.perf_counter()
                with timeline.stage("previous-field fallback"):
                    fallback = previous_field_fallback(previous)
                recovery_seconds += time.perf_counter() - t0
            if fallback is None and policy.allows(DegradationLevel.RIGID_ONLY):
                t0 = time.perf_counter()
                with timeline.stage("rigid-only fallback"):
                    fallback = rigid_only_fallback(
                        preop.mri, preop.mesher.mesh.n_nodes
                    )
                recovery_seconds += time.perf_counter() - t0
            if fallback is None:
                # The operator bounded degradation above what this scan
                # needs: honor the fail-fast request.
                raise failure if failure is not None else ValidationError(
                    "degradation required but disallowed by max_degradation"
                )
            report.level = fallback.level
            if not report.cause:
                report.cause = str(failure) if failure is not None else ""
            note(fallback.note)
            simulation = fallback.simulation
            nodal_displacement = fallback.nodal_displacement
            grid_disp = fallback.grid_displacement
            deformed = fallback.deformed_mri
        else:
            nodal_displacement = simulation.displacement

        # Stubs for whatever the failure path skipped, so every consumer
        # of IntraoperativeResult keeps working on degraded scans.
        if segmentation is None:
            segmentation = ImageVolume(
                np.zeros(intraop_mri.shape, dtype=np.int16),
                intraop_mri.spacing,
                intraop_mri.origin,
            )
        if correspondence is None:
            correspondence = stub_correspondence(preop.surface)

        if target_mask is not None:
            rigid_rms, sim_rms, rigid_mi, sim_mi = self._match_metrics(
                preop, intraop_mri, deformed, preop_in_scan, target_mask
            )
        else:
            rigid_rms = sim_rms = rigid_mi = sim_mi = float("nan")

        report.wall_seconds = recovery_seconds
        if plan is not None:
            report.faults = [
                s.describe() for s in plan.triggered if s.scan == scan_index
            ]
        if report.degraded or report.escalated:
            timeline.note("resilience summary: " + report.summary())

        return IntraoperativeResult(
            deformed_mri=deformed,
            nodal_displacement=nodal_displacement,
            grid_displacement=grid_disp,
            segmentation=segmentation,
            rigid=rigid_result,
            correspondence=correspondence,
            simulation=simulation,
            timeline=timeline,
            prototypes=prototypes,
            match_rigid_rms=rigid_rms,
            match_simulated_rms=sim_rms,
            match_rigid_mi=rigid_mi,
            match_simulated_mi=sim_mi,
            degradation=report,
        )

