"""Harness-timed probe calls into single layers ([P] metrics).

Each probe calls one public function on the workload's own inputs (its
mesh, its matrix, its last scan) and becomes one span under ``probes``.
Cheap kernels report the median of many calls; builds that take seconds
are called once.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.sparse import linalg as spla

from repro.backend import get_backend
from repro.fem.assembly import element_stiffness_matrices
from repro.fem.bc import DirichletBC
from repro.fem.context import AssemblyContext
from repro.imaging.resample import invert_displacement_field, warp_volume
from repro.mesh.generator import mesh_labeled_volume
from repro.parallel.simulation import prepare_solve_context, simulate_parallel
from repro.parallel.solver import DistributedBlockJacobi
from repro.registration.transform import RigidTransform
from repro.segmentation.atlas import LocalizationModel
from repro.segmentation.knn import KNNClassifier
from repro.segmentation.prototypes import build_features
from repro.serving.protocol import CaseRequest
from repro.serving.transport import decode_submit, encode_submit

from spans import SpanRecorder

KERNEL_CALLS = 50


class Prober:
    def __init__(self, recorder: SpanRecorder, root: int | None):
        self.recorder = recorder
        self.parent = recorder.add("probes", time.perf_counter(), time.perf_counter(), root)
        self.values: dict[str, float] = {}

    def time(self, name: str, fn, calls: int = 1):
        """Median seconds of ``calls`` calls of ``fn``; returns the last result."""
        samples = []
        result = None
        for _ in range(calls):
            with self.recorder.span(name, self.parent, scan="probe"):
                t0 = time.perf_counter()
                result = fn()
                samples.append(time.perf_counter() - t0)
        self.values[name] = statistics.median(samples)
        return result

    def close(self) -> None:
        if self.parent is not None:
            self.recorder.spans[self.parent].end = time.perf_counter()


def run_probes(session, scan, recorder: SpanRecorder, root: int | None, serve: bool) -> dict:
    """Probe every layer on ``session``'s model and its latest result."""
    p = Prober(recorder, root)
    cfg = session.pipeline.config
    preop = session.preop
    mesh = preop.mesher.mesh
    last = session.latest()
    transform = last.rigid.transform if last.rigid is not None else RigidTransform.identity()
    backend = get_backend()

    # segmentation
    feats = p.time(
        "segmentation.features_s",
        lambda: build_features(scan, preop.localization, scan.voxel_centers(), transform),
        calls=3,
    )
    classifier = KNNClassifier(k=cfg.knn_k).fit_prototypes(last.prototypes)
    p.time("segmentation.knn_predict_s", lambda: classifier.predict(feats), calls=3)

    # imaging
    inverse = p.time(
        "imaging.invert_field_s",
        lambda: invert_displacement_field(last.grid_displacement, preop.mri.spacing),
        calls=3,
    )
    p.time("imaging.warp_s", lambda: warp_volume(preop.mri, inverse, fill_value=0.0), calls=3)
    p.time(
        "imaging.localization_s",
        lambda: LocalizationModel.from_labels(
            preop.labels, cfg.segmentation_classes, cfg.localization_cap_mm
        ),
        calls=3,
    )

    # mesh
    p.time(
        "mesh.generate_s",
        lambda: mesh_labeled_volume(preop.labels, cfg.mesh_cell_mm, cfg.brain_labels),
    )
    p.time(
        "mesh.grid_interp_s",
        lambda: preop.mesher.displacement_on_grid(last.nodal_displacement, preop.mri),
        calls=3,
    )

    # fem / parallel / solver
    nodes = preop.surface.mesh_nodes
    solve_kw = dict(materials=cfg.materials, partitioner=cfg.partitioner)
    context = p.time(
        "fem.context_build_s",
        lambda: prepare_solve_context(mesh, nodes, cfg.n_ranks, **solve_kw),
    )
    assembly = p.time("fem.assembly_s", lambda: AssemblyContext(mesh, cfg.materials))
    bc = DirichletBC(nodes, last.correspondence.displacements)
    run_kw = dict(tol=cfg.solver_tol, restart=cfg.gmres_restart, **solve_kw)
    cold = p.time(
        "parallel.simulate_cold_s",
        lambda: simulate_parallel(mesh, bc, cfg.n_ranks, context=None, **run_kw),
    )

    def prepared_cold_start():
        context.reset_warm_state()
        return simulate_parallel(mesh, bc, cfg.n_ranks, context=context, **run_kw)

    p.time("parallel.simulate_warm_s", prepared_cold_start, calls=3)
    p.values["solver.cold_iterations"] = float(cold.solver.iterations)

    matrix = cold.system.matrix
    pre = p.time("solver.precond_setup_s", lambda: DistributedBlockJacobi(matrix))
    r = np.random.default_rng(0).standard_normal(matrix.n)
    p.time("solver.precond_apply_s", lambda: pre.solve(r), calls=KERNEL_CALLS)

    # backend kernels on the workload's own matrix
    csr = matrix.to_csr()
    out = np.empty(matrix.n)
    p.time("backend.csr_matvec_s", lambda: backend.csr_matvec(csr, r, out=out), calls=KERNEL_CALLS)
    p.values["backend.csr_matvec_bytes"] = float(
        csr.nnz * (8 + 4) + (matrix.n + 1) * 4 + 2 * matrix.n * 8
    )
    ranges = [(int(a), int(b)) for a, b in matrix.ranges]
    factors = [
        spla.spilu(matrix.local[k][:, a:b].tocsc(), drop_tol=1e-4, fill_factor=3.0)
        for k, (a, b) in enumerate(ranges)
    ]
    apply = backend.prepare_block_apply(ranges, factors)
    p.time("backend.block_apply_s", lambda: apply(r, out), calls=KERNEL_CALLS)
    p.time(
        "backend.coo_accumulate_s",
        lambda: backend.coo_accumulate(
            assembly.scatter, assembly.element_matrices.ravel(), assembly.nnz
        ),
        calls=5,
    )
    p.time(
        "backend.element_stiffness_s",
        lambda: element_stiffness_matrices(mesh, cfg.materials),
        calls=5,
    )

    # serving codec (exercised by the serve workloads only)
    if serve:
        request = CaseRequest("probe", preop.mri, preop.labels, [scan], config=cfg)
        request.preop_key()  # memoised; keep the hash out of the codec timing
        payload = p.time("serving.codec_encode_s", lambda: encode_submit(request), calls=5)
        p.time(
            "serving.codec_decode_s",
            lambda: decode_submit(payload, (preop.mri, preop.labels)),
            calls=5,
        )
    else:
        p.values["serving.codec_encode_s"] = 0.0
        p.values["serving.codec_decode_s"] = 0.0
    p.close()
    return p.values
