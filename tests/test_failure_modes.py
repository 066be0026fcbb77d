"""Failure-injection tests: the library must fail loudly and precisely.

A clinical system's worst failure is a silently wrong answer; these
tests pin down the error behaviour for degenerate meshes, mechanisms,
non-convergence, and inconsistent inputs.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.fem.bc import DirichletBC, apply_dirichlet
from repro.fem.assembly import assemble_stiffness
from repro.fem.material import BRAIN_HOMOGENEOUS
from repro.imaging.volume import ImageVolume
from repro.mesh.generator import mesh_labeled_volume
from repro.mesh.tetra import TetrahedralMesh
from repro.solver.gmres import gmres
from repro.util import ConvergenceError, MeshError, RankFailure, ValidationError


class TestMechanismFiltering:
    @staticmethod
    def corner_touching_labels():
        """Two single-cell regions that share exactly one lattice point."""
        data = np.zeros((4, 4, 4), dtype=np.uint8)
        data[0, 0, 0] = 1
        data[1, 1, 1] = 1
        return ImageVolume(data, (1.0, 1.0, 1.0))

    def test_filter_drops_vertex_connected_cluster(self):
        labels = self.corner_touching_labels()
        mesher = mesh_labeled_volume(labels, 1.0, (1,), keep_largest_component=True)
        # Only one cell's 6 tetrahedra survive.
        assert mesher.mesh.n_elements == 6

    def test_without_filter_both_clusters_meshed(self):
        labels = self.corner_touching_labels()
        mesher = mesh_labeled_volume(labels, 1.0, (1,), keep_largest_component=False)
        assert mesher.mesh.n_elements == 12

    def test_unfiltered_partial_support_is_singularity_prone(self):
        """The vertex hinge produces a (near-)singular partially
        constrained stiffness — exactly what the filter prevents."""
        labels = self.corner_touching_labels()
        mesher = mesh_labeled_volume(labels, 1.0, (1,), keep_largest_component=False)
        mesh = mesher.mesh
        K = assemble_stiffness(mesh, BRAIN_HOMOGENEOUS)
        # Fix only the nodes of the first cluster; the second can hinge.
        first_cluster = np.unique(mesh.elements[:6])
        bc = DirichletBC(first_cluster, np.zeros((len(first_cluster), 3)))
        reduced = apply_dirichlet(K, np.zeros(mesh.n_dof), bc)
        dense = reduced.matrix.toarray()
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.min() < 1e-10 * eigs.max()  # a zero-energy mode exists


class TestDegenerateInputs:
    def test_flat_tetrahedron_rejected_in_fem(self):
        nodes = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0.0]], dtype=float)
        mesh = TetrahedralMesh(nodes, np.array([[0, 1, 2, 3]]), np.array([1]))
        with pytest.raises(ValidationError):
            assemble_stiffness(mesh, BRAIN_HOMOGENEOUS)

    def test_empty_material_region(self):
        labels = ImageVolume(np.zeros((4, 4, 4), dtype=np.uint8))
        with pytest.raises(MeshError):
            mesh_labeled_volume(labels, 1.0, (7,))

    def test_bc_with_all_dofs_fixed_gives_empty_system(self, brain_mesh):
        K = assemble_stiffness(brain_mesh, BRAIN_HOMOGENEOUS)
        bc = DirichletBC(
            np.arange(brain_mesh.n_nodes), np.zeros((brain_mesh.n_nodes, 3))
        )
        reduced = apply_dirichlet(K, np.zeros(brain_mesh.n_dof), bc)
        assert reduced.n_free == 0
        # Expanding an empty solution returns exactly the BC values.
        full = reduced.expand(np.zeros(0))
        assert np.all(full == 0)


class TestSolverFailures:
    def test_gmres_reports_stagnation_honestly(self):
        """A singular system cannot converge; the result must say so."""
        A = sparse.diags([1.0, 1.0, 0.0]).tocsr()
        b = np.array([1.0, 1.0, 1.0])
        result = gmres(A, b, tol=1e-12, max_iter=50)
        assert not result.converged
        assert result.residual_norm > 0

    def test_gmres_raise_on_fail_carries_diagnostics(self):
        A = sparse.diags([1.0, 1.0, 0.0]).tocsr()
        with pytest.raises(ConvergenceError) as excinfo:
            gmres(A, np.ones(3), tol=1e-12, max_iter=7, raise_on_fail=True)
        # Breakdown may end the run before the budget is spent.
        assert 0 < excinfo.value.iterations <= 7
        assert np.isfinite(excinfo.value.residual)
        # The error names its algorithm so recovery code can attribute
        # the failure without parsing the message.
        assert excinfo.value.solver == "gmres"

    def test_cg_raise_on_fail_names_its_solver(self):
        from repro.solver.cg import conjugate_gradient

        A = sparse.diags([1.0, 1.0, 1e-14]).tocsr()
        with pytest.raises(ConvergenceError) as excinfo:
            conjugate_gradient(A, np.ones(3), tol=1e-14, max_iter=2, raise_on_fail=True)
        assert excinfo.value.solver == "cg"
        assert excinfo.value.iterations > 0

    def test_history_length_matches_iterations(self):
        rng = np.random.RandomState(0)
        A = (sparse.random(30, 30, density=0.3, random_state=rng) + sparse.eye(30) * 15).tocsr()
        result = gmres(A, np.ones(30), tol=1e-10)
        # history holds the initial residual per cycle plus one entry per
        # inner iteration.
        assert len(result.history) >= result.iterations


class TestInconsistentGeometry:
    def test_pipeline_grid_mismatch(self, small_case):
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import IntraoperativePipeline

        pipeline = IntraoperativePipeline(PipelineConfig(mesh_cell_mm=9.0))
        wrong = ImageVolume(np.zeros((8, 8, 8)))
        with pytest.raises(ValidationError):
            pipeline.prepare_preoperative(small_case.preop_mri, wrong)

    def test_warp_field_shape_mismatch(self, small_case):
        from repro.imaging.resample import warp_volume
        from repro.util import ShapeError

        with pytest.raises(ShapeError):
            warp_volume(small_case.preop_mri, np.zeros((2, 2, 2, 3)))


class TestFailFastWithoutResilience:
    """``resilience.enabled = False`` restores the loud, precise pipeline."""

    def test_nonfinite_scan_rejected_outright(self, small_case):
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import IntraoperativePipeline
        from repro.resilience import FaultPlan

        config = PipelineConfig(
            mesh_cell_mm=9.0,
            rigid_levels=1,
            rigid_max_iter=2,
            rigid_samples=2000,
            fault_plan=FaultPlan.parse("0:scan-nan=0.1", seed=0),
        )
        config.resilience.enabled = False
        pipeline = IntraoperativePipeline(config)
        preop = pipeline.prepare_preoperative(
            small_case.preop_mri, small_case.preop_labels
        )
        with pytest.raises(ValidationError, match="non-finite"):
            pipeline.process_scan(small_case.intraop_mri, preop)

    @pytest.mark.parametrize(
        "fault, error",
        [("0:stagnate-solver", ConvergenceError), ("0:kill-rank", RankFailure)],
    )
    def test_solver_faults_fire_and_raise(self, small_case, fault, error):
        """Fail-fast is loud about the solve too: an unconverged GMRES or a
        dead rank raises instead of coming back as a normal result."""
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import IntraoperativePipeline
        from repro.resilience import FaultPlan

        config = PipelineConfig(
            mesh_cell_mm=9.0,
            rigid_levels=1,
            rigid_max_iter=2,
            rigid_samples=2000,
            fault_plan=FaultPlan.parse(fault, seed=0),
        )
        config.resilience.enabled = False
        pipeline = IntraoperativePipeline(config)
        preop = pipeline.prepare_preoperative(
            small_case.preop_mri, small_case.preop_labels
        )
        with pytest.raises(error) as raised:
            pipeline.process_scan(small_case.intraop_mri, preop)
        assert len(config.fault_plan.triggered) == 1
        if error is ConvergenceError:
            assert raised.value.stage == "biomechanical simulation"

    def test_volume_sanitized_reports_fill_count(self):
        data = np.ones((4, 4, 4))
        data[0, 0, :2] = np.nan
        volume = ImageVolume(data)
        fixed, n_fixed = volume.sanitized()
        assert n_fixed == 2
        assert np.isfinite(fixed.data).all()
        assert np.isnan(volume.data).any()  # original untouched
