"""The production solver tolerance: one constant, and what it costs in accuracy.

``DEFAULT_SOLVER_TOL`` (PETSc's ``-ksp_rtol`` default, ``1e-5`` on the
left-preconditioned residual) is the default of every production solve.
These tests pin the accuracy it ships on — the nodal field within
2e-3 mm of a ``1e-10`` solve, for fewer iterations than ``1e-7`` — and
that every entry point takes its default *from the constant*, so the
next scattered literal fails here and not in a review.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.experiments.common import build_clinical_system
from repro.experiments.fig7 import scaling_sweep
from repro.parallel.simulation import PARTITIONERS, simulate_parallel
from repro.parallel.solver import PRECONDITIONERS, distributed_gmres
from repro.resilience.escalation import solve_with_escalation
from repro.solver import DEFAULT_SOLVER_TOL, conjugate_gradient, gmres

#: Max-norm distance from the ``1e-10`` field the default may cost (mm);
#: measured 0.02-0.24 um on this system, 0.5 um on the 22.8 k-equation
#: benchmark system, 1.4 um at paper size.
FIELD_TOL_MM = 2e-3


@pytest.fixture(scope="module")
def system():
    """A ~6 k-equation phantom system, surface displacements up to 4.2 mm."""
    return build_clinical_system(target_equations=6000, shape=(32, 32, 24))


@pytest.fixture(scope="module")
def reference(system):
    """The ``1e-10`` field (serial; it does not depend on the rank count)."""
    sim = simulate_parallel(system.mesh, system.bc, 1, tol=1e-10)
    assert sim.solver.converged
    return sim.displacement


class TestAccuracyAtTheDefault:
    @pytest.mark.parametrize("n_ranks", [1, 4])
    def test_field_within_two_microns_for_fewer_iterations(self, system, reference, n_ranks):
        assert 5000 < system.n_dof < 7000
        default = simulate_parallel(system.mesh, system.bc, n_ranks)
        tight = simulate_parallel(system.mesh, system.bc, n_ranks, tol=1e-7)
        assert default.solver.converged and tight.solver.converged
        assert np.abs(default.displacement - reference).max() <= FIELD_TOL_MM
        assert default.solver.iterations < tight.solver.iterations
        # Converged means what the constant says: relative, on the
        # preconditioned residual.
        solver = default.solver
        assert solver.residual_norm <= DEFAULT_SOLVER_TOL * solver.rhs_norm

    @settings(max_examples=6, deadline=None)
    @given(
        n_ranks=st.sampled_from([1, 2, 4]),
        preconditioner=st.sampled_from(PRECONDITIONERS),
    )
    def test_any_rank_count_and_preconditioner(self, system, reference, n_ranks, preconditioner):
        sim = simulate_parallel(system.mesh, system.bc, n_ranks, preconditioner=preconditioner)
        assert sim.solver.converged
        assert np.abs(sim.displacement - reference).max() <= FIELD_TOL_MM

    @settings(max_examples=16, deadline=None)
    @given(
        preconditioner=st.sampled_from(PRECONDITIONERS),
        n_ranks=st.sampled_from([1, 2, 4, 8]),
        partitioner=st.sampled_from(sorted(PARTITIONERS)),
    )
    def test_preconditioner_rank_and_partitioner_differential(
        self, system, reference, preconditioner, n_ranks, partitioner
    ):
        sim = simulate_parallel(
            system.mesh, system.bc, n_ranks,
            partitioner=partitioner, preconditioner=preconditioner,
        )
        assert sim.solver.converged
        assert np.abs(sim.displacement - reference).max() <= FIELD_TOL_MM


def _default(func, name: str = "tol"):
    return inspect.signature(func).parameters[name].default


def _field_default(cls, name: str):
    (match,) = [f for f in dataclasses.fields(cls) if f.name == name]
    return match.default


class TestOneConstant:
    def test_value_is_petscs_default_rtol(self):
        assert DEFAULT_SOLVER_TOL == 1e-5

    @pytest.mark.parametrize(
        "default",
        [
            pytest.param(_field_default(PipelineConfig, "solver_tol"), id="PipelineConfig"),
            pytest.param(_default(solve_with_escalation), id="solve_with_escalation"),
            pytest.param(_default(distributed_gmres), id="distributed_gmres"),
            pytest.param(_default(simulate_parallel), id="simulate_parallel"),
            pytest.param(_default(scaling_sweep), id="fig7.scaling_sweep"),
        ],
    )
    def test_production_entry_points_default_to_the_constant(self, default):
        # Identity, not equality: a literal 1e-5 typed into a signature is
        # an equal float but a different object.
        assert default is DEFAULT_SOLVER_TOL

    @pytest.mark.parametrize("func", [gmres, conjugate_gradient])
    def test_library_solvers_keep_their_own_default(self, func):
        assert _default(func) == 1e-8
