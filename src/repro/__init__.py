"""repro — reproduction of Warfield et al. (SC 2000).

*Real-Time Biomechanical Simulation of Volumetric Brain Deformation for
Image Guided Neurosurgery.*

The package implements the paper's full intraoperative nonrigid
registration pipeline and every substrate it depends on — synthetic MR
phantom, distance transforms, MI rigid registration, k-NN intraoperative
segmentation, multi-material tetrahedral meshing, active-surface
correspondence, linear-elastic FEM, GMRES/block-Jacobi and CG/block-FSAI
solvers, an SPMD decomposition layer, and performance models of the
paper's three parallel architectures.

Quick start::

    from repro import IntraoperativePipeline, PipelineConfig
    from repro.imaging import make_neurosurgery_case

    case = make_neurosurgery_case(shape=(64, 64, 48), seed=0)
    pipeline = IntraoperativePipeline(PipelineConfig(mesh_cell_mm=6.0))
    preop = pipeline.prepare_preoperative(case.preop_mri, case.preop_labels)
    result = pipeline.process_scan(case.intraop_mri, preop)
    print(result.timeline.as_table())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproductions.
"""

from repro.core import (
    IntraoperativePipeline,
    IntraoperativeResult,
    PipelineConfig,
    PreoperativeModel,
    Timeline,
)
from repro.fem import (
    BiomechanicalModel,
    DirichletBC,
    LinearElasticMaterial,
    MaterialMap,
    SolveContext,
)
from repro.imaging import BrainPhantom, ImageVolume, NeurosurgeryCase, Tissue, make_neurosurgery_case
from repro.machines import DEEP_FLOW, ULTRA80_CLUSTER, ULTRA_HPC_6000, MachineSpec, VirtualCluster
from repro.obs import MetricsRegistry, Tracer, use_tracer
from repro.parallel import simulate_parallel
from repro.resilience import (
    DegradationLevel,
    DegradationReport,
    FaultPlan,
    ResiliencePolicy,
)

__version__ = "1.0.0"

__all__ = [
    "DEEP_FLOW",
    "BiomechanicalModel",
    "BrainPhantom",
    "DegradationLevel",
    "DegradationReport",
    "DirichletBC",
    "FaultPlan",
    "ImageVolume",
    "IntraoperativePipeline",
    "IntraoperativeResult",
    "LinearElasticMaterial",
    "MachineSpec",
    "MaterialMap",
    "MetricsRegistry",
    "NeurosurgeryCase",
    "PipelineConfig",
    "PreoperativeModel",
    "ResiliencePolicy",
    "SolveContext",
    "Timeline",
    "Tissue",
    "Tracer",
    "ULTRA80_CLUSTER",
    "ULTRA_HPC_6000",
    "VirtualCluster",
    "__version__",
    "make_neurosurgery_case",
    "simulate_parallel",
    "use_tracer",
]
