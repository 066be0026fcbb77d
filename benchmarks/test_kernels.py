"""Microbenchmarks of the pipeline's hot kernels.

Not a paper exhibit, but the profile-first discipline the optimization
of this library followed: each benchmark isolates one kernel at a
realistic workload size. Includes the paper's Section 3.2 claim — "for
display of the simulated deformation we need to resample a data set
according to the computed deformation, which requires approximately
0.5 seconds" — exercised at the paper's true 256x256x60 matrix.

``test_kernel_backend_columns`` additionally times the element
stiffness, the assembly, the CSR mat-vec and the block-Jacobi apply and
merges them into ``BENCH_hotpath.json`` as the ``numpy`` column of
``kernels`` (first call and steady state).
"""

from __future__ import annotations

import itertools
import math
import os
import pathlib
import time
import tracemalloc

import numpy as np
import pytest

from repro.fem.assembly import (
    assemble_stiffness,
    build_csr_pattern,
    element_stiffness_matrices,
)
from repro.fem.bc import DirichletBC
from repro.fem.context import AssemblyContext
from repro.fem.material import BRAIN_HOMOGENEOUS
from repro.imaging.distance import saturated_distance_transform, signed_distance
from repro.imaging.resample import trilinear_sample, warp_volume
from repro.imaging.volume import ImageVolume
from repro.mesh.generator import mesh_labeled_volume
from repro.mesh.partition import partition_block
from repro.mesh.surface import extract_boundary_surface
from repro.parallel.assembly import build_distributed_system
from repro.parallel.decomposition import Decomposition
from repro.parallel.solver import DistributedBlockJacobi, distributed_gmres
from repro.registration.rigid import MutualInformationCost
from repro.segmentation.knn import KNNClassifier

pytestmark = pytest.mark.bench

RESULT_PATH = pathlib.Path(__file__).with_name("BENCH_hotpath.json")
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


@pytest.fixture(scope="module")
def medium(system77):
    """Reuse the 77k-equation clinical mesh for FEM kernels."""
    return system77


@pytest.fixture(scope="module")
def fem57():
    """A 57 k-element brain mesh with random surface displacements — the
    size of the end-to-end benchmark's ``session-fem`` model."""
    from repro.experiments.common import BRAIN_LABELS
    from repro.imaging.phantom import make_neurosurgery_case

    case = make_neurosurgery_case(shape=(32, 32, 24), shift_mm=5.0, seed=42)
    mesh = mesh_labeled_volume(case.preop_labels, 9.0 if SMOKE else 4.2, BRAIN_LABELS).mesh
    nodes = extract_boundary_surface(mesh).mesh_nodes
    displacements = np.random.default_rng(7).normal(0.0, 1.0, (len(nodes), 3))
    return mesh, DirichletBC(nodes, displacements)


def test_kernel_saturated_distance_transform(benchmark):
    rng = np.random.default_rng(0)
    mask = rng.random((128, 128, 64)) < 0.01
    benchmark(lambda: saturated_distance_transform(mask, 15.0, (1.0, 1.0, 2.0)))


def test_kernel_distance_transform():
    """The saturated distance transforms of the hot-path phantom (40x40x30,
    ``session-image``'s grid): the 8 a patient's model build runs (6 present
    tissue classes at ``localization_cap_mm``, the snap's inside and outside
    of the brain at ``surface_cap_mm``) and the 2 of a scan's track (the
    intraoperative brain). Seconds for all 10, the median of seven runs, and
    the voxels inside their saturation windows, merged into BENCH_hotpath.json.
    The same size in smoke."""
    from bench_io import update_bench_record
    from repro.core.config import PipelineConfig
    from repro.imaging.distance import saturation_window
    from repro.imaging.phantom import make_neurosurgery_case

    cfg = PipelineConfig()
    case = make_neurosurgery_case(shape=(40, 40, 30), shift_mm=4.0, seed=42)
    labels, spacing = case.preop_labels.data, case.preop_labels.spacing
    present = [labels == c for c in cfg.segmentation_classes if np.any(labels == c)]
    brain = np.isin(labels, cfg.brain_labels)
    scan_brain = np.isin(case.intraop_labels.data, cfg.brain_labels)
    build = [(m, cfg.localization_cap_mm) for m in present]
    build += [(brain, cfg.surface_cap_mm), (~brain, cfg.surface_cap_mm)]
    scan = [(scan_brain, cfg.surface_cap_mm), (~scan_brain, cfg.surface_cap_mm)]
    transforms = build + scan
    run = lambda: [saturated_distance_transform(m, cap, spacing) for m, cap in transforms]
    run()
    samples = []
    for _ in range(7):
        t0 = time.perf_counter()
        run()
        samples.append(time.perf_counter() - t0)
    window_voxels = 0
    for m, cap in transforms:
        window = saturation_window(m, cap, spacing)
        window_voxels += 0 if window is None else int(np.prod([w.stop - w.start for w in window]))
    update_bench_record(
        RESULT_PATH,
        {
            "distance_transform": {
                "shape": list(labels.shape),
                "build_transforms": len(build),
                "scan_transforms": len(scan),
                "voxels": int(labels.size) * len(transforms),
                "window_voxels": window_voxels,
                "seconds": float(np.median(samples)),
            }
        },
    )
    assert len(build) == 8
    # The window drops the flat margin: a small class computes a fraction of the grid.
    assert window_voxels < labels.size * len(transforms)


def test_kernel_mesh_generation(medium, system77_equations, monkeypatch):
    """The ``system77`` mesh at its own cell size, and the size search that
    chose it: seconds and allocation peak, merged into BENCH_hotpath.json."""
    from bench_io import update_bench_record
    from repro.experiments.common import BRAIN_LABELS
    from repro.mesh import generator
    from repro.util.memory import reachable_array_bytes

    labels = medium.case.preop_labels
    cell_mm = tuple(float(h) for h in medium.mesher.cell_size)
    build = lambda: mesh_labeled_volume(labels, cell_mm, BRAIN_LABELS)
    first, seconds, mesher = _timed(build, repeats=5)
    tracemalloc.start()
    build()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert np.array_equal(mesher.mesh.elements, medium.mesh.elements)

    target_nodes = system77_equations // 3
    search = lambda: generator.mesh_with_target_nodes(labels, target_nodes, BRAIN_LABELS)
    _, search_seconds, found = _timed(search, repeats=2)
    assert found.cells == mesher.cells
    # Once more under spies: how many sizes it probed, how many meshes it built.
    probes, builds = [], []
    count_nodes, build_mesh = generator._count_nodes, generator.mesh_labeled_volume
    monkeypatch.setattr(
        generator, "_count_nodes", lambda *a: probes.append(a[1]) or count_nodes(*a)
    )
    monkeypatch.setattr(
        generator, "mesh_labeled_volume", lambda *a: builds.append(a[1]) or build_mesh(*a)
    )
    search()

    own = reachable_array_bytes(mesher)
    update_bench_record(
        RESULT_PATH,
        {
            "mesh_generation": {
                "smoke": SMOKE,
                "cell_mm": list(cell_mm),
                "candidates": int(np.prod(mesher.cells)) * 6,
                "kept_elements": int(mesher.mesh.n_elements),
                "n_nodes": int(mesher.mesh.n_nodes),
                "first_call_seconds": first,
                "seconds": seconds,
                "peak_bytes_allocated": int(peak),
                "mesher_bytes": int(own),
                "size_search": {
                    "target_nodes": int(target_nodes),
                    "seconds": search_seconds,
                    "probes": len(probes),
                    "meshes_built": len(builds),
                },
            }
        },
    )
    # Work and memory follow the tetrahedra kept, not the bounding box:
    # the dense generator peaked at 16x the mesher it returned.
    assert peak <= 8 * own
    assert len(builds) == 1  # whatever the probe count
    if not SMOKE:
        # 134 k elements of 741 k candidates: the dense generator took 0.3 s on
        # settled pages and 1.0-2.3 s on fresh ones, its size search 2.1-3.4 s.
        assert seconds <= 0.5
        assert search_seconds <= 1.0


def test_kernel_rigid_registration():
    """One aligned registration at the end-to-end benchmark's working size
    (40x40x30, 4,000 samples, 2 levels, one Powell iteration): evaluations
    and seconds, merged into BENCH_hotpath.json. The same size in smoke."""
    from bench_io import update_bench_record
    from repro.imaging.phantom import make_neurosurgery_case
    from repro.registration.rigid import register_rigid

    case = make_neurosurgery_case(shape=(40, 40, 30), shift_mm=4.0, seed=42)
    register = lambda: register_rigid(
        case.intraop_mri, case.preop_mri, levels=2, max_iter=1, max_samples=4000
    )
    first, seconds, result = _timed(register, repeats=15)
    update_bench_record(
        RESULT_PATH,
        {
            "rigid_registration": {
                "shape": list(case.preop_mri.shape),
                "samples": 4000,
                "evaluations": int(result.evaluations),
                "first_call_seconds": first,
                "seconds": seconds,
                "seconds_per_evaluation": seconds / result.evaluations,
                "pose_mm": result.transform.magnitude(),
            }
        },
    )
    # scipy's Powell, whose line tolerance is relative to a step near zero
    # on an aligned scan, took 264 evaluations on this pair.
    assert result.evaluations <= 180
    assert result.transform.magnitude() < 1.5


def test_kernel_surface_snap():
    """``snap_surface`` on the hot-path phantom's 6 mm mesh boundary (40x40x30):
    vertices, iterations, residual and seconds (signed distance and gradient
    volumes included), merged into BENCH_hotpath.json. The same size in smoke."""
    from bench_io import update_bench_record
    from repro.core.config import PipelineConfig
    from repro.imaging.phantom import make_neurosurgery_case
    from repro.surface import snap_surface

    labels = make_neurosurgery_case(shape=(40, 40, 30), shift_mm=4.0, seed=42).preop_labels
    brain_labels = PipelineConfig().brain_labels
    surface = extract_boundary_surface(mesh_labeled_volume(labels, 6.0, brain_labels).mesh)
    brain_mask = np.isin(labels.data, brain_labels)
    _, seconds, snapped = _timed(lambda: snap_surface(surface, brain_mask, labels), repeats=15)
    update_bench_record(
        RESULT_PATH,
        {
            "surface_snap": {
                "shape": list(labels.shape),
                "vertices": int(surface.n_vertices),
                "iterations": int(snapped.iterations),
                "residual_mm": float(snapped.mean_residual_mm),
                "seconds": seconds,
            }
        },
    )
    # With the membrane's internal force in it the snap crept for 176
    # iterations and stopped 0.68 mm (mean |phi|) off the mask.
    assert snapped.converged and snapped.iterations <= 15
    assert snapped.mean_residual_mm < 0.02


def test_kernel_classification():
    """``KNNClassifier.segment`` on the hot-path phantom (40x40x30, 20
    prototypes a class, k = 5, a small rigid map): voxels, prototypes, the
    share of voxels not decided at the majority, and seconds (feature rows
    included), merged into BENCH_hotpath.json. ``classification`` labels
    every voxel; ``classification_band`` is the path a scan runs, k-NN only
    within ``surface_cap_mm`` of the preoperative brain boundary and the
    mapped prior elsewhere, and records how many voxels that is. The same
    size in smoke."""
    from bench_io import update_bench_record
    from repro.core.config import PipelineConfig
    from repro.imaging.metrics import dice_coefficient
    from repro.imaging.phantom import make_neurosurgery_case
    from repro.registration.transform import RigidTransform
    from repro.segmentation.atlas import LocalizationModel
    from repro.segmentation.prototypes import select_prototypes

    cfg = PipelineConfig()
    case = make_neurosurgery_case(shape=(40, 40, 30), shift_mm=4.0, seed=42)
    scan = case.intraop_mri
    localization = LocalizationModel.from_labels(
        case.preop_labels, cfg.segmentation_classes, cfg.localization_cap_mm
    )
    transform = RigidTransform(
        (0.4, -0.3, 0.2), (0.01, -0.015, 0.02), tuple(np.asarray(scan.physical_extent) / 2)
    )
    prototypes = select_prototypes(
        scan, case.preop_labels, localization, cfg.segmentation_classes,
        per_class=20, transform=transform, seed=0,
    )
    classifier = KNNClassifier(k=cfg.knn_k).fit_prototypes(prototypes)
    segment = lambda: classifier.segment(scan, localization, transform)
    _, seconds, segmentation = _timed(segment, repeats=15)
    voxels = int(segmentation.data.size)
    update_bench_record(
        RESULT_PATH,
        {
            "classification": {
                "shape": list(scan.shape),
                "voxels": voxels,
                "prototypes": len(prototypes),
                "k": classifier.k,
                "open_share": classifier.open_share,
                "seconds": seconds,
                "seconds_per_voxel": seconds / voxels,
            }
        },
    )
    # The five-pass vote on every row took 0.065 s here. 7 % of these voxels
    # (6 mm across) are still open after three picks; twice that would mean
    # the prototypes no longer separate the classes.
    assert classifier.open_share < 0.15
    brain = np.isin(segmentation.data, cfg.intraop_brain_labels)
    truth = np.isin(case.intraop_labels.data, cfg.intraop_brain_labels)
    assert dice_coefficient(brain, truth) > 0.9

    labels = case.preop_labels
    cap = cfg.surface_cap_mm
    phi = signed_distance(np.isin(labels.data, cfg.brain_labels), cap, labels.spacing)
    band = np.abs(phi) < cap
    segment = lambda: classifier.segment(scan, localization, transform, band=band, prior=labels)
    _, seconds, banded = _timed(segment, repeats=15)
    update_bench_record(
        RESULT_PATH,
        {
            "classification_band": {
                "shape": list(scan.shape),
                "voxels": voxels,
                "band_voxels": classifier.classified,
                "prototypes": len(prototypes),
                "k": classifier.k,
                "open_share": classifier.open_share,
                "seconds": seconds,
            }
        },
    )
    # The band is ~40 % of the grid; outside it the mapped prior changes no
    # voxel's brain / non-brain side.
    assert classifier.classified < 0.6 * voxels
    assert np.array_equal(np.isin(banded.data, cfg.intraop_brain_labels), brain)


def test_kernel_resample():
    """The resample stage's two kernels on the hot-path phantom (40x40x30,
    the 6 mm mesh, the phantom's 4 mm shift at the mesh nodes carried to the
    grid as a scan's field is): ``invert_displacement_field`` and
    ``warp_volume`` seconds, the voxels the inverter iterates, its sweeps a
    voxel and damped voxels, and the voxels the warp samples, merged into
    BENCH_hotpath.json. The same size in smoke."""
    from bench_io import update_bench_record
    from repro.core.config import PipelineConfig
    from repro.imaging.phantom import make_neurosurgery_case
    from repro.imaging.resample import invert_with_counts

    case = make_neurosurgery_case(shape=(40, 40, 30), shift_mm=4.0, seed=42)
    mri = case.preop_mri
    mesher = mesh_labeled_volume(case.preop_labels, 6.0, PipelineConfig().brain_labels)
    nodes = mesher.mesh.nodes
    axes = [ImageVolume(np.ascontiguousarray(case.true_forward_mm[..., a]), mri.spacing,
                        mri.origin) for a in range(3)]
    nodal = np.stack([trilinear_sample(axis, nodes) for axis in axes], axis=1)
    forward = mesher.displacement_on_grid(nodal, mri)
    _, invert_seconds, (inverse, counts) = _timed(
        lambda: invert_with_counts(forward, mri.spacing), repeats=15
    )
    _, warp_seconds, _ = _timed(lambda: warp_volume(mri, inverse), repeats=15)
    update_bench_record(
        RESULT_PATH,
        {
            "resample": {
                "shape": list(mri.shape),
                "active_voxels": counts.active_voxels,
                "sweeps_per_voxel": counts.voxel_sweeps / counts.active_voxels,
                "damped_voxels": counts.damped_voxels,
                "warped_voxels": counts.displaced_voxels,
                "invert_seconds": invert_seconds,
                "warp_seconds": warp_seconds,
                "seconds": invert_seconds + warp_seconds,
            }
        },
    )
    # Ten plain sweeps a voxel was the iteration before each voxel stopped
    # on its own; the warp samples only where the inverse is non-zero.
    assert counts.voxel_sweeps < 6 * counts.active_voxels
    assert counts.displaced_voxels < 0.5 * mri.data.size


def test_kernel_pipeline_solve():
    """One warm-context ``simulate_parallel`` at the *default* tolerance on the
    30 k-equation hot-path system (4 ranks, prepared context, GMRES from zero,
    so the count repeats exactly): iterations, seconds and the distance
    from a ``1e-10`` solve, merged into BENCH_hotpath.json. The same size in smoke."""
    from bench_io import update_bench_record
    from test_hotpath_reuse import BENCH_EQUATIONS, N_RANKS

    from repro.experiments.common import build_clinical_system
    from repro.parallel.simulation import prepare_solve_context, simulate_parallel
    from repro.solver import DEFAULT_SOLVER_TOL

    system = build_clinical_system(BENCH_EQUATIONS)
    context = prepare_solve_context(system.mesh, system.bc.node_ids, N_RANKS)
    solve = lambda **kw: simulate_parallel(
        system.mesh, system.bc, N_RANKS, context=context, **kw
    )
    reference = solve(tol=1e-10)
    _, seconds, result = _timed(solve, repeats=9)
    assert result.cache_hit
    max_abs = float(np.abs(result.displacement - reference.displacement).max())
    update_bench_record(
        RESULT_PATH,
        {
            "pipeline_solve": {
                "n_equations": int(result.n_equations),
                "n_ranks": N_RANKS,
                "tol": DEFAULT_SOLVER_TOL,
                "iterations": int(result.solver.iterations),
                "seconds": seconds,
                "max_abs_vs_reference_mm": max_abs,
            }
        },
    )
    assert result.solver.converged
    # 1e-7 takes about half as many iterations again on this system.
    assert result.solver.iterations < 0.8 * solve(tol=1e-7).solver.iterations
    assert max_abs <= 2e-3


def test_kernel_pipeline_solve_production():
    """``pipeline_solve``'s system and call on the pipeline's own solve: the
    ``PipelineConfig`` default partitioner (compact coordinate-bisection
    subdomains) and ``PIPELINE_PRECONDITIONER`` (block FSAI deflated by
    rigid-body modes on aggregates). Iterations, seconds (the median of 9 warm
    solves, interleaved with 9 of the paper configuration on the same
    system) and the distance from a ``1e-10`` solve, merged into
    BENCH_hotpath.json. The same size in smoke."""
    from bench_io import update_bench_record
    from test_hotpath_reuse import BENCH_EQUATIONS, N_RANKS

    from repro.core.config import PipelineConfig
    from repro.experiments.common import build_clinical_system
    from repro.parallel.simulation import prepare_solve_context, simulate_parallel
    from repro.parallel.solver import PIPELINE_PRECONDITIONER
    from repro.solver import DEFAULT_SOLVER_TOL

    system = build_clinical_system(BENCH_EQUATIONS)
    solver = dict(
        partitioner=PipelineConfig().partitioner, preconditioner=PIPELINE_PRECONDITIONER
    )
    context = prepare_solve_context(system.mesh, system.bc.node_ids, N_RANKS, **solver)
    solve = lambda **kw: simulate_parallel(
        system.mesh, system.bc, N_RANKS, context=context, **solver, **kw
    )
    paper_context = prepare_solve_context(system.mesh, system.bc.node_ids, N_RANKS)
    paper_solve = lambda: simulate_parallel(
        system.mesh, system.bc, N_RANKS, context=paper_context
    )
    reference = solve(tol=1e-10)
    paper = paper_solve()
    samples: dict[str, list[float]] = {"production": [], "paper": []}
    for _ in range(9):
        for name, fn in (("production", solve), ("paper", paper_solve)):
            t0 = time.perf_counter()
            out = fn()
            samples[name].append(time.perf_counter() - t0)
            if name == "production":
                result = out
    seconds = float(np.median(samples["production"]))
    paper_seconds = float(np.median(samples["paper"]))
    assert result.cache_hit
    max_abs = float(np.abs(result.displacement - reference.displacement).max())
    update_bench_record(
        RESULT_PATH,
        {
            "pipeline_solve_production": {
                "n_equations": int(result.n_equations),
                "n_ranks": N_RANKS,
                "tol": DEFAULT_SOLVER_TOL,
                **solver,
                "iterations": int(result.solver.iterations),
                "seconds": seconds,
                "max_abs_vs_reference_mm": max_abs,
                "paper_configuration_iterations": int(paper.solver.iterations),
                "paper_configuration_seconds": paper_seconds,
            }
        },
    )
    assert result.solver.converged
    # An iteration of the deflated block FSAI (two G products, one coarse
    # solve) is cheaper than one of the paper configuration's block-ILU
    # GMRES: the solve as a whole must be the faster.
    assert seconds < paper_seconds
    assert max_abs <= 2e-3


def test_kernel_block_factorization():
    """``factor_blocks`` on the 4 diagonal blocks of ``pipeline_solve``'s
    30 k-equation system (the block ILU a new patient's model build pays):
    seconds (the median of 5 calls), the threads that factored (the calling
    thread plus one helper per spare core, up to one per block), the cores
    the process may use, and the factors' nonzeros, merged into
    BENCH_hotpath.json. The same size in smoke."""
    from bench_io import update_bench_record
    from test_hotpath_reuse import BENCH_EQUATIONS, N_RANKS

    from repro.experiments.common import build_clinical_system
    from repro.solver.preconditioner import factor_blocks, usable_cores

    system = build_clinical_system(BENCH_EQUATIONS)
    dec = Decomposition.from_partition(system.mesh, partition_block(system.mesh, N_RANKS))
    bc = DirichletBC(dec.old_to_new[system.bc.node_ids], system.bc.displacements)
    matrix = build_distributed_system(dec, BRAIN_HOMOGENEOUS, bc).matrix
    blocks = [matrix.local[k][:, a:b].tocsc() for k, (a, b) in enumerate(matrix.ranges)]
    factor = lambda: factor_blocks(blocks, "ilu")
    factor()
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        factors = factor()
        samples.append(time.perf_counter() - t0)
    factor_nnz = sum(lu.L.nnz + lu.U.nnz for lu in factors)
    block_nnz = sum(block.nnz for block in blocks)
    update_bench_record(
        RESULT_PATH,
        {
            "block_factorization": {
                "n_equations": int(matrix.n),
                "blocks": len(blocks),
                "threads": min(len(blocks), usable_cores()),
                "nproc": usable_cores(),
                "block_nnz": int(block_nnz),
                "factor_nnz": int(factor_nnz),
                "seconds": float(np.median(samples)),
            }
        },
    )
    # The drop threshold governs the factor, not the fill cap (1.3-1.7x).
    assert factor_nnz < 2.0 * block_nnz


def test_kernel_block_fsai():
    """``DistributedBlockFSAI`` on the 4 diagonal blocks of ``pipeline_solve``'s
    system on the pipeline's compact subdomains (the block solver a new
    patient's model build pays under the coarse space): seconds (the
    median of 5 builds), the threads that built (as ``factor_blocks``),
    the cores the process may use and ``G``'s nonzeros, merged into
    BENCH_hotpath.json beside ``block_factorization``. The same size in smoke."""
    from bench_io import update_bench_record
    from test_hotpath_reuse import BENCH_EQUATIONS, N_RANKS

    from repro.core.config import PipelineConfig
    from repro.experiments.common import build_clinical_system
    from repro.parallel.simulation import prepare_solve_context
    from repro.parallel.solver import DistributedBlockFSAI
    from repro.solver.preconditioner import usable_cores

    system = build_clinical_system(BENCH_EQUATIONS)
    context = prepare_solve_context(
        system.mesh, system.bc.node_ids, N_RANKS, partitioner=PipelineConfig().partitioner
    )
    matrix = context.slots["matrix"]
    components = context.reduction.free_dofs % 3
    build = lambda: DistributedBlockFSAI(matrix, components)
    build()
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        fsai = build()
        samples.append(time.perf_counter() - t0)
    block_nnz = sum(matrix.local[k][:, a:b].nnz for k, (a, b) in enumerate(matrix.ranges))
    update_bench_record(
        RESULT_PATH,
        {
            "block_fsai": {
                "n_equations": int(matrix.n),
                "blocks": matrix.n_ranks,
                "threads": min(matrix.n_ranks, usable_cores()),
                "nproc": usable_cores(),
                "block_nnz": int(block_nnz),
                "g_nnz": int(fsai._g.nnz),
                "seconds": float(np.median(samples)),
            }
        },
    )
    # G keeps each node's lower neighbours: about half the block's nonzeros.
    assert fsai._g.nnz < 0.7 * block_nnz


def test_kernel_element_stiffness(medium, benchmark):
    mesh = medium.mesh
    Ke = benchmark.pedantic(
        lambda: element_stiffness_matrices(mesh, BRAIN_HOMOGENEOUS),
        rounds=2,
        iterations=1,
    )
    assert Ke.shape == (mesh.n_elements, 12, 12)


def test_kernel_global_assembly(medium, benchmark):
    mesh = medium.mesh
    K = benchmark.pedantic(
        lambda: assemble_stiffness(mesh, BRAIN_HOMOGENEOUS), rounds=2, iterations=1
    )
    assert K.shape == (mesh.n_dof, mesh.n_dof)


def test_kernel_sparse_matvec(medium, benchmark):
    K = assemble_stiffness(medium.mesh, BRAIN_HOMOGENEOUS)
    x = np.random.default_rng(1).normal(size=K.shape[0])
    benchmark(lambda: K @ x)


def test_kernel_block_jacobi_apply(medium, benchmark):
    from repro.fem.bc import apply_dirichlet
    from repro.parallel.distributed import RowBlockMatrix

    K = assemble_stiffness(medium.mesh, BRAIN_HOMOGENEOUS)
    reduced = apply_dirichlet(K, np.zeros(medium.mesh.n_dof), medium.bc)
    n = reduced.n_free
    bounds = np.linspace(0, n, 17).astype(int)
    ranges = np.stack([bounds[:-1], bounds[1:]], axis=1)
    matrix = RowBlockMatrix.from_csr(reduced.matrix, ranges)
    pre = DistributedBlockJacobi(matrix)
    r = np.random.default_rng(2).normal(size=n)
    benchmark(lambda: pre.solve(r))


def test_kernel_symbolic_assembly(fem57, benchmark):
    """CSR pattern + scatter map from connectivity: seconds and bytes."""
    mesh, _ = fem57
    pattern = lambda: build_csr_pattern(mesh.elements, mesh.n_nodes)
    scatter, indices, _ = benchmark.pedantic(pattern, rounds=3, iterations=1)
    tracemalloc.start()
    pattern()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    benchmark.extra_info.update(
        n_elements=int(mesh.n_elements),
        nnz=int(len(indices)),
        scatter_bytes=int(scatter.nbytes),
        peak_bytes_allocated=int(peak),
    )
    assert scatter.shape == (144 * mesh.n_elements,)
    # scatter, one smaller temporary and the 16 m-sized sort arrays — the
    # 144 m-pair lexsort held about seven arrays of scatter's size.
    assert peak < 3 * scatter.nbytes


def test_kernel_numeric_assembly(fem57, benchmark):
    """Symbolic + blocked numeric assembly: seconds, allocation peak, retained bytes."""
    mesh, _ = fem57
    build = lambda: AssemblyContext(mesh, BRAIN_HOMOGENEOUS)
    benchmark.pedantic(build, rounds=3, iterations=1)
    tracemalloc.start()
    ctx = build()
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    K = ctx.matrix()
    matrix_bytes = K.data.nbytes + K.indices.nbytes + K.indptr.nbytes
    benchmark.extra_info.update(
        n_elements=int(mesh.n_elements),
        nnz=int(K.nnz),
        matrix_bytes=int(matrix_bytes),
        peak_bytes_allocated=int(peak),
        retained_bytes=int(retained),
    )
    # The memory contract (tests/test_fem_blocked_assembly.py) at full
    # size: the one-shot fill peaked at 13x and kept 10.6x the matrix.
    if not SMOKE:  # on the smoke mesh one 2,048-element block outweighs the matrix
        assert peak <= 4 * matrix_bytes
    assert retained <= 2 * matrix_bytes


@pytest.mark.parametrize("kernel", ["matmul", "einsum"])
def test_kernel_element_stiffness_from_B(fem57, benchmark, kernel):
    """``V B^T D B`` as the element module's batched matmul vs the einsum it replaced."""
    from repro.fem.element import (
        element_stiffness_from_B,
        shape_function_gradients,
        strain_displacement_matrices,
    )

    mesh, _ = fem57
    gradients, volumes = shape_function_gradients(mesh.element_coordinates())
    B = strain_displacement_matrices(gradients)
    D = BRAIN_HOMOGENEOUS.elasticity_for_elements(mesh.materials)
    V = np.abs(volumes)

    def einsum():
        K = np.einsum("mji,mjk->mik", B, np.einsum("mij,mjk->mik", D, B))
        K *= V[:, None, None]
        return K

    matmul = lambda: element_stiffness_from_B(B, V, D)
    got = benchmark.pedantic({"matmul": matmul, "einsum": einsum}[kernel], rounds=3, iterations=1)
    benchmark.extra_info.update(n_elements=int(mesh.n_elements))
    assert _rel_deviation(got, einsum()) <= 1e-15


def test_kernel_block_ilu(fem57, benchmark):
    """4-rank block ILU: set-up, factor size, one application, GMRES iterations."""
    mesh, bc = fem57
    dec = Decomposition.from_partition(mesh, partition_block(mesh, 4))
    system = build_distributed_system(
        dec, BRAIN_HOMOGENEOUS, DirichletBC(dec.old_to_new[bc.node_ids], bc.displacements)
    )
    matrix = system.matrix
    pre = benchmark.pedantic(lambda: DistributedBlockJacobi(matrix), rounds=2, iterations=1)
    r = np.random.default_rng(2).normal(size=matrix.n)
    _, apply_seconds, _ = _timed(lambda: pre.solve(r), repeats=20)
    result = distributed_gmres(matrix, system.rhs, pre, tol=1e-7, restart=30)
    block_nnz = sum(matrix.local[k][:, a:b].nnz for k, (a, b) in enumerate(matrix.ranges))
    benchmark.extra_info.update(
        free_equations=int(matrix.n),
        block_nnz=int(block_nnz),
        factor_nnz=int(pre._factor_nnz.sum()),
        apply_seconds=apply_seconds,
        iterations=int(result.iterations),
    )
    assert result.converged
    assert pre._factor_nnz.sum() < 2.0 * block_nnz


def _timed(fn, repeats=3):
    """(first_call_seconds, best_of_repeats_seconds, last_result).

    The first call is timed separately so JIT compilation cost shows up
    as its own column instead of polluting the steady-state number.
    """
    t0 = time.perf_counter()
    result = fn()
    first = time.perf_counter() - t0
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return first, best, result


def _rel_deviation(got, expected) -> float:
    scale = max(1.0, float(np.abs(expected).max()))
    return float(np.abs(got - expected).max()) / scale


def test_kernel_backend_columns(medium):
    """The numpy kernels' timing column, merged into BENCH_hotpath.json."""
    from repro.backend import get_backend
    from repro.fem.bc import apply_dirichlet
    from repro.parallel.distributed import RowBlockMatrix
    from repro.parallel.solver import DistributedBlockJacobi
    from bench_io import update_bench_record

    mesh = medium.mesh
    backend = get_backend()
    col: dict[str, dict] = {}

    first, best, _ = _timed(lambda: element_stiffness_matrices(mesh, BRAIN_HOMOGENEOUS))
    col["element_stiffness"] = {"first_call_seconds": first, "seconds": best}

    first, best, K = _timed(lambda: assemble_stiffness(mesh, BRAIN_HOMOGENEOUS))
    col["assembly"] = {"first_call_seconds": first, "seconds": best}

    x = np.random.default_rng(5).normal(size=K.shape[0])
    first, best, _ = _timed(lambda: backend.csr_matvec(K, x), repeats=10)
    col["csr_matvec"] = {"first_call_seconds": first, "seconds": best}

    reduced = apply_dirichlet(K, np.zeros(mesh.n_dof), medium.bc)
    bounds = np.linspace(0, reduced.n_free, 17).astype(int)
    pre = DistributedBlockJacobi(
        RowBlockMatrix.from_csr(reduced.matrix, np.column_stack([bounds[:-1], bounds[1:]])),
        factorization="lu",
    )
    r = np.random.default_rng(6).normal(size=reduced.n_free)
    first, best, _ = _timed(lambda: pre.solve(r), repeats=10)
    col["block_jacobi_apply"] = {"first_call_seconds": first, "seconds": best}

    update_bench_record(
        RESULT_PATH,
        {
            "kernels": {
                "system": {
                    "n_elements": int(mesh.n_elements),
                    "n_dof": int(mesh.n_dof),
                    "smoke": SMOKE,
                },
                "backends": {backend.name: col},
            }
        },
    )


def test_kernel_paper_resample_claim(benchmark):
    """The ~0.5 s resample at the paper's 256x256x60 acquisition matrix."""
    rng = np.random.default_rng(3)
    volume = ImageVolume(rng.random((256, 256, 60)), (0.9375, 0.9375, 2.5))
    centers = volume.voxel_centers()
    mid = np.asarray(volume.physical_extent) / 2.0
    r2 = np.sum((centers - mid) ** 2, axis=-1)
    disp = (6.0 * np.exp(-r2 / (2 * 40.0**2)))[..., None] * np.array([0.0, 0.0, 1.0])

    out = benchmark.pedantic(lambda: warp_volume(volume, disp), rounds=3, iterations=1)
    assert out.shape == volume.shape


def test_kernel_trilinear_gather(benchmark):
    rng = np.random.default_rng(4)
    volume = ImageVolume(rng.random((128, 128, 64)))
    pts = rng.uniform(0, 60, size=(500000, 3))
    benchmark(lambda: trilinear_sample(volume, pts))


def test_kernel_mi_evaluation(benchmark):
    """One MI cost evaluation at the rigid stage's working size, as a line
    search along a translation axis makes it: the cost remembers the other
    two index rows, so each call here recomputes one."""
    rng = np.random.default_rng(5)
    moving = ImageVolume(rng.random((40, 40, 30)), (3.0, 3.0, 3.0))
    extent = np.asarray(moving.physical_extent)
    pts = rng.uniform(0.1, 0.9, size=(4000, 3)) * extent
    cost = MutualInformationCost(rng.random(4000), pts, moving, tuple(extent / 2.0), bins=32)
    line = itertools.cycle(
        [np.array([tx, -2.0, 0.5, 0.02, -0.01, 0.03]) for tx in (1.0, 1.5)]
    )
    value = benchmark(lambda: cost(next(line)))
    assert -np.log(32) <= value <= 0.0


def test_kernel_knn_predict(benchmark):
    """Brute-force k-NN of a scan's voxels against the prototype set."""
    rng = np.random.default_rng(6)
    classifier = KNNClassifier(k=5).fit(rng.normal(size=(120, 8)), rng.integers(0, 6, 120))
    features = rng.normal(size=(48000, 8))
    labels = benchmark(lambda: classifier.predict(features))
    assert labels.shape == (48000,)
