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
from repro.imaging.distance import signed_distance
from repro.imaging.metrics import mutual_information, rms_difference
from repro.imaging.phantom import Tissue
from repro.imaging.resample import invert_with_counts, trilinear_sample, warp_volume
from repro.imaging.volume import ImageVolume
from repro.machines.spec import MachineSpec
from repro.mesh.generator import GridTetraMesher, mesh_labeled_volume, mesh_with_target_nodes
from repro.mesh.surface import TriangleSurface, extract_boundary_surface
from repro.obs.budget import PAPER_SCAN_BUDGET, ScanVerdict
from repro.obs.export import iterations_per_decade
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, get_tracer, use_tracer
from repro.parallel.simulation import ParallelSimulation, prepare_solve_context
from repro.parallel.solver import PIPELINE_PRECONDITIONER
from repro.persist.checkpoint import ScanRecord
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
from repro.surface.forces import DistanceForceField
from repro.util import ConvergenceError, ReproError, ValidationError
from repro.util.atomicio import checksum_array
from repro.util.memory import reachable_array_bytes

#: Share of non-finite intraoperative voxels up to which a resilient
#: pipeline sanitizes the scan; past it the acquisition is unusable and
#: the scan degrades (previous field / rigid-only).
MAX_NONFINITE_FRACTION = 0.25


def _label_name(label: int) -> str:
    try:
        return Tissue(label).name.lower()
    except ValueError:
        return f"label {label}"


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
        whose snap parameters differ recomputes it per scan (its surface
        entry counts ``snap_recomputed``).
        Only vertex positions are kept — the force-field volumes are not.
    band:
        The voxels of the preoperative grid within ``snap_params``'s
        ``cap_mm`` of the brain boundary (``|phi| < cap`` on the snap's
        signed distance): where the active surface can look, so the only
        voxels of a scan the k-NN classifies (after the rigid map).
        Every other voxel keeps the preoperative label. A pipeline whose
        cap differs builds a band for its own cap per scan.
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
    band: np.ndarray | None = None

    def invalidate_solve_context(self) -> None:
        """Force a rebuild of the cached FEM state on the next scan.

        Call after replacing the mesh or editing the material map. The
        mesh's arrays are read-only, so an in-place edit raises instead of
        going unnoticed; a new mesh (a resection) or another material map
        changes the fingerprint and is rebuilt anyway, but an explicit
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
    degradation:
        :class:`repro.resilience.DegradationReport` describing what the
        resilience layer did for this scan — level delivered, escalation
        rungs tried, injected faults, recovery cost. A scan run with
        resilience disabled carries one too (always ``full-fem``: it
        either delivers that or raises); only a restored result may
        have ``None``.
    scan:
        0-based index of the scan within its session (the pipeline's
        ``scan_index``).
    record:
        The scan's :class:`repro.persist.ScanRecord`, built on first
        read and then kept: the journal commits it, a session summarizes
        the scan with it and a served reply carries it. A result
        restored from a checkpoint holds the journal's record
        (``record.restored``) beside synthetic solver / segmentation
        stand-ins.
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
    degradation: DegradationReport | None = None
    scan: int = 0
    _field_shas: tuple[str, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _record: ScanRecord | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def field_shas(self) -> tuple[str, str]:
        """``(nodal_sha, grid_sha)``: the two fields' digests, computed once.

        Each costs a pass over its field (the grid one is 3 x voxels
        float64); the scan's :attr:`record` and the replay check read them.
        """
        if self._field_shas is None:
            self._field_shas = (
                checksum_array(np.asarray(self.nodal_displacement, dtype=float)),
                checksum_array(np.asarray(self.grid_displacement, dtype=float)),
            )
        return self._field_shas

    @property
    def record(self) -> ScanRecord:
        """The scan's :class:`~repro.persist.ScanRecord`, built once."""
        if self._record is None:
            self._record = ScanRecord.of(self)
        return self._record

    @record.setter
    def record(self, record: ScanRecord) -> None:
        self._record = record


@dataclass
class IntraoperativePipeline:
    """End-to-end implementation of the paper's registration pipeline.

    Observability hooks (all optional, all default-off):

    tracer:
        Hierarchical trace spans are recorded here (scan stages, FEM
        assembly phases, solver restarts); ``None`` uses the ambient
        tracer from :func:`repro.obs.get_tracer` — a no-op unless one
        was installed via :func:`repro.obs.use_tracer`.
    metrics:
        A :class:`repro.obs.MetricsRegistry` absorbing the run's
        numbers: mesh sizes, solver iterations/restarts/residual,
        solve-context cache hits/misses/hit-ratio.
    """

    config: PipelineConfig = field(default_factory=PipelineConfig)
    machine: MachineSpec | None = None
    tracer: Tracer | None = field(default=None, repr=False)
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
                cap = snap_params["cap_mm"]
                snap_field = DistanceForceField.from_mask(brain_mask, labels, cap)
                snapped = snap_surface(
                    surface, brain_mask, labels, **snap_params, field=snap_field
                )
                band = np.abs(snap_field.phi.data) < cap
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
                    preconditioner=PIPELINE_PRECONDITIONER,
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
            band=band,
        )

    def _snap_params(self) -> dict[str, float]:
        """``snap_surface``'s keyword arguments; also the stored snap's key."""
        cfg = self.config
        return {
            "cap_mm": cfg.surface_cap_mm,
            "iterations": cfg.surface_iterations,
            "step_size": cfg.surface_step,
        }

    def _classification_band(self, preop: PreoperativeModel) -> np.ndarray:
        """The model's band when it was built for this pipeline's cap, else one
        built here from the brain mask (not kept: the model stays the same).
        A model without ``snap_params`` does not say which cap its band has."""
        cap = self.config.surface_cap_mm
        if preop.band is not None and (preop.snap_params or {}).get("cap_mm") == cap:
            return preop.band
        return np.abs(signed_distance(preop.brain_mask, cap, preop.labels.spacing)) < cap

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

        Once its stages finish, the scan is judged against the paper's
        time budget (:meth:`repro.obs.ScanVerdict.of`): each warning is
        a ``budget:`` timeline note and a ``budget.warning`` trace
        event, and the verdict is read from the scan's record
        (:meth:`repro.persist.ScanRecord.verdict`). When the pipeline
        carries observability hooks (``tracer``, ``metrics`` — or an
        ambient tracer installed via :func:`repro.obs.use_tracer`), the
        scan is wrapped in a ``process_scan`` span with one child span
        per stage, and the run's numbers land in the metrics registry.
        """
        tracer = self._tracer()
        timeline = Timeline(tracer=tracer)

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
            verdict = ScanVerdict.of(
                ((e.stage, e.seconds) for e in timeline.entries), scan_index
            )
            for warning in verdict.warnings:
                timeline.note("budget: " + warning)
                tracer.event("budget.warning", scan=scan_index, warning=warning)
            scan_span.set(budget=verdict.label)

        self._record_scan_metrics(result)
        return result

    def _record_scan_metrics(self, result: IntraoperativeResult) -> None:
        """Land one scan's numbers in the metrics registry (if attached)."""
        if self.metrics is None:
            return
        m = self.metrics
        m.counter("pipeline.scans").inc()
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
        with timeline.stage("rigid registration") as counts:
            rigid_result = register_rigid(
                intraop_mri,
                preop.mri,
                levels=cfg.rigid_levels,
                max_iter=cfg.rigid_max_iter,
                max_samples=cfg.rigid_samples,
                seed=cfg.seed,
            )
            counts["evaluations"] = int(rigid_result.evaluations)
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
        with timeline.stage("tissue classification") as counts:
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
                intraop_mri,
                preop.localization,
                transform=transform,
                band=self._classification_band(preop),
                prior=preop.labels,
            )
            voxels, band = int(segmentation.data.size), int(classifier.classified)
            counts.update(
                voxels=voxels, band_mm=float(cfg.surface_cap_mm), band_voxels=band,
                band_share=band / voxels, prototypes=len(prototypes),
                k=int(classifier.k), open_share=float(classifier.open_share),
            )
            # Outside the band: prior labels no prototype carries.
            for label, count in classifier.prior_only.items():
                counts[f"prior_only_{_label_name(label).replace(' ', '_')}"] = int(count)
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
        with timeline.stage("surface displacement") as counts:
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
            counts["snap_iterations"] = int(correspondence.snapped.iterations)
            if reused is None:
                counts["snap_recomputed"] = True
            counts.update(
                track_iterations=int(tracked.iterations),
                track_converged=bool(tracked.converged),
                track_residual_mm=float(tracked.mean_residual_mm),
                track_last_step_mm=float(tracked.history[-1] if tracked.history else 0.0),
            )
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
        error propagates. The one-rank retry after a rank failure runs
        on an isolated context, so the shared per-patient cache survives
        it and the next scan still gets its data-only fast path.
        """
        cfg = self.config
        deadline = max(PAPER_SCAN_BUDGET - timeline.total(), 1.0)
        with timeline.stage("biomechanical simulation") as counts:
            bc = DirichletBC(preop.surface.mesh_nodes, correspondence.displacements)
            outcome = solve_with_escalation(
                preop.mesher.mesh,
                bc,
                n_ranks=cfg.n_ranks,
                machine=self.machine,
                materials=cfg.materials,
                partitioner=cfg.partitioner,
                tol=cfg.solver_tol,
                context=preop.solve_context,
                deadline_s=deadline,
                faults=cfg.fault_plan,
                scan_index=scan_index,
                escalate=cfg.resilience.enabled,
            )
            if outcome.succeeded:  # beyond the record's solver_* / cache_* facts
                sim, solver = outcome.simulation, outcome.simulation.solver
                counts.update(
                    virtual_init_s=float(sim.initialization_seconds),
                    virtual_assembly_s=float(sim.assembly_seconds),
                    virtual_solve_s=float(sim.solve_seconds),
                    iterations=int(solver.iterations),
                    equations=int(sim.n_dof_total),
                    free_equations=int(sim.n_equations),
                )
                rate = iterations_per_decade(solver.iterations, solver.history)
                if rate is not None:
                    counts["it_per_decade"] = float(rate)
                if solver.rhs_norm:
                    counts["rel_residual"] = float(solver.residual_norm / solver.rhs_norm)
            return outcome

    def _stage_resample(
        self, preop: PreoperativeModel, displacement: np.ndarray, timeline: Timeline
    ) -> tuple[np.ndarray, ImageVolume]:
        """Stage 5 — deform the preop MRI onto the new configuration."""
        with timeline.stage("visualization resample") as counts:
            grid_disp = preop.mesher.displacement_on_grid(displacement, preop.mri)
            inverse, inverted = invert_with_counts(grid_disp, preop.mri.spacing)
            deformed = warp_volume(preop.mri, inverse, fill_value=0.0)
            counts.update({k: int(v) for k, v in inverted._asdict().items()})
            counts["voxels"] = int(preop.mri.data.size)
        return grid_disp, deformed

    def _match_metrics(
        self,
        preop: PreoperativeModel,
        intraop_mri: ImageVolume,
        deformed: ImageVolume,
        preop_in_scan: np.ndarray,
        target_mask: np.ndarray,
    ) -> tuple[float, float, float, float]:
        """Match-quality metrics (Fig. 4): rigid-only vs simulated.

        All four read only the scored region, so only its voxels are
        sampled: the same values in the same order as masking full-grid
        arrays.
        """
        region = target_mask | preop.brain_mask
        scan = trilinear_sample(intraop_mri, preop_in_scan[region], fill_value=0.0)
        rigid, simulated = preop.mri.data[region], deformed.data[region]
        return (
            rms_difference(rigid, scan),
            rms_difference(simulated, scan),
            mutual_information(rigid, scan),
            mutual_information(simulated, scan),
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
            scan=scan_index,
        )

