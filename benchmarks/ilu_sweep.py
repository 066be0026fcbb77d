#!/usr/bin/env python3
"""Block-ILU parameter sweep on the end-to-end benchmark's FEM systems.

    PYTHONPATH=src python3 benchmarks/ilu_sweep.py

For each system (the three meshes of ``benchmarks/e2e`` at their rank
counts, the ``session-fem`` mesh on 16 ranks, and a 48x48x36 volume at
``mesh_cell_mm=2.2`` on 8 ranks) and each ``(drop_tol, fill_factor)``
pair, builds the block-Jacobi ILU factors and solves the reduced system
with random surface displacements (tol 1e-7, restart 30, cold start).
Prints factor nonzeros, their ratio to the blocks' own nonzeros, GMRES
iterations and the true relative residual — the table in EXPERIMENTS.md
("Block-ILU sweep"). Counts repeat exactly; no timing is reported.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from inputs import BRAIN_LABELS, _geometry  # noqa: E402

from repro.fem.bc import DirichletBC  # noqa: E402
from repro.fem.material import BRAIN_HOMOGENEOUS  # noqa: E402
from repro.mesh.generator import mesh_labeled_volume  # noqa: E402
from repro.mesh.partition import partition_block  # noqa: E402
from repro.mesh.surface import extract_boundary_surface  # noqa: E402
from repro.parallel.assembly import build_distributed_system  # noqa: E402
from repro.parallel.decomposition import Decomposition  # noqa: E402
from repro.parallel.solver import DistributedBlockJacobi, distributed_gmres  # noqa: E402
from repro.solver import preconditioner  # noqa: E402

SYSTEMS = (
    ("session-image", (40, 40, 30), 6.0, 1),
    ("serve-newpatient", (32, 32, 24), 5.0, 1),
    ("session-fem", (32, 32, 24), 2.6, 4),
    ("session-fem mesh, 16 ranks", (32, 32, 24), 2.6, 16),
    ("48x48x36, cell 2.2", (48, 48, 36), 2.2, 8),
)
#: (drop_tol, fill_factor): the former defaults, the current ones, the
#: current threshold at the former cap of 10 and at 20, and the
#: neighbouring thresholds.
SETTINGS = (
    (1e-4, 3.0), (1e-2, 4.0), (1e-2, 10.0), (1e-2, 20.0),
    (2e-2, 10.0), (5e-2, 10.0), (1e-3, 10.0),
)


def reduced_system(shape, cell_mm, n_ranks):
    labels, _, _ = _geometry(shape)
    mesh = mesh_labeled_volume(labels, cell_mm, BRAIN_LABELS).mesh
    nodes = extract_boundary_surface(mesh).mesh_nodes
    displacements = np.random.default_rng(0).standard_normal((len(nodes), 3))
    dec = Decomposition.from_partition(mesh, partition_block(mesh, n_ranks))
    bc = DirichletBC(dec.old_to_new[nodes], displacements)
    return build_distributed_system(dec, BRAIN_HOMOGENEOUS, bc)


def main() -> None:
    print("| system (free eq., ranks) | drop_tol | fill cap | factor nnz | x block nnz "
          "| iterations | restarts | true rel. residual |")
    print("|---|---|---|---|---|---|---|---|")
    for name, shape, cell_mm, n_ranks in SYSTEMS:
        system = reduced_system(shape, cell_mm, n_ranks)
        matrix, rhs = system.matrix, system.rhs
        csr = matrix.to_csr()
        block_nnz = sum(
            matrix.local[k][:, a:b].nnz for k, (a, b) in enumerate(matrix.ranges)
        )
        for drop_tol, fill_factor in SETTINGS:
            preconditioner.ILU_DROP_TOL = drop_tol
            preconditioner.ILU_FILL_FACTOR = fill_factor
            pre = DistributedBlockJacobi(matrix)
            result = distributed_gmres(matrix, rhs, pre, tol=1e-7, restart=30)
            factor_nnz = float(pre._factor_nnz.sum())
            residual = np.linalg.norm(csr @ result.x - rhs) / np.linalg.norm(rhs)
            print(
                f"| {name} ({matrix.n}, {n_ranks}) | {drop_tol:g} | {fill_factor:g} "
                f"| {factor_nnz / 1e6:.2f} M | {factor_nnz / block_nnz:.2f} "
                f"| {result.iterations}{'' if result.converged else ' (not converged)'} "
                f"| {result.restarts} | {residual:.1e} |"
            )


if __name__ == "__main__":
    main()
