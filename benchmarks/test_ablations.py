"""Ablation benchmarks for the paper's proposed improvements.

See DESIGN.md section 5 and ``repro.experiments.ablations``.
"""

from __future__ import annotations

import pytest

from repro.experiments import ablations
from repro.experiments.common import build_clinical_system

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module")
def medium_system():
    return build_clinical_system(target_equations=30000, shape=(64, 64, 48))


def test_partitioner_ablation(medium_system, record_report, benchmark):
    report = ablations.partitioner_ablation(medium_system, n_ranks=16)
    record_report(report)
    rows = {r[0]: r for r in report.rows}
    # The paper's proposed fix reduces assembly-work imbalance vs block.
    assert rows["work_weighted"][1] <= rows["block"][1] + 1e-9
    assert rows["work_weighted"][3] <= rows["block"][3] * 1.02

    benchmark(lambda: report.table())


def test_material_ablation(record_report, benchmark):
    report = ablations.material_ablation()
    record_report(report)
    rows = {r[0]: r for r in report.rows}
    hetero = rows["heterogeneous (falx+ventricle)"]
    homo = rows["homogeneous"]
    # The heterogeneous model must not worsen the overall brain error
    # while the ventricle region stays comparable or improves — the
    # paper's qualitative expectation.
    assert hetero[1] < homo[1] * 1.25

    benchmark(lambda: report.table())


def test_condensation_ablation(medium_system, record_report, benchmark):
    report = ablations.condensation_ablation(medium_system)
    record_report(report)
    rows = {r[0]: r[1] for r in report.rows}
    assert rows["max |u| difference (mm)"] < 1e-4
    assert rows["update speedup"] > 3.0

    from repro.fem.condensed import CondensedSurfaceModel

    model = CondensedSurfaceModel(medium_system.mesh, medium_system.bc.node_ids)
    benchmark(lambda: model.update_from_bc(medium_system.bc))


def test_solver_ablation(medium_system, record_report, benchmark):
    report = ablations.solver_ablation(medium_system, n_ranks=8)
    record_report(report)
    assert all(row[2] for row in report.rows)  # every configuration converges
    rows = {r[0]: r for r in report.rows}
    # The pipeline's own solve is one of the rows, and it converges.
    assert rows["CG + pipeline preconditioner"][2]

    benchmark(lambda: report.table())


def test_incremental_ablation(record_report, benchmark):
    report = ablations.incremental_ablation(shape=(48, 48, 36))
    record_report(report)
    relative = [row[3] for row in report.rows]
    absolute = [row[2] for row in report.rows]
    # Clinical-scale shift: linearity holds within a few percent of peak;
    # the absolute correction grows with the imposed shift.
    assert relative[0] < 0.1
    assert absolute[0] < absolute[-1]

    benchmark(lambda: report.table())
