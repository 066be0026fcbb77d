#!/usr/bin/env python
"""Decomposition study: the paper's load imbalances and its proposed fix.

The paper attributes its sub-linear scaling to two load imbalances:

1. assembly — equal node counts but unequal node *connectivity*;
2. solve — boundary-condition elimination removes unequal numbers of
   unknowns per CPU.

This example measures both on a clinical-size mesh for each available
partitioner and shows the effect on virtual wall-clock, including the
connectivity-aware decomposition the paper proposes as future work.

Run:  python examples/partitioner_study.py
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import build_clinical_system
from repro.fem.bc import eliminated_per_node
from repro.machines import DEEP_FLOW
from repro.mesh.partition import partition_statistics
from repro.parallel import simulate_parallel
from repro.parallel.decomposition import Decomposition
from repro.parallel.simulation import PARTITIONERS
from repro.util import format_table


def main() -> None:
    n_ranks = 16
    print("Building a ~30,000-equation clinical system...")
    system = build_clinical_system(target_equations=30000, shape=(64, 64, 48))
    mesh = system.mesh
    print(f"  {system.n_dof} equations, {mesh.n_elements} tetrahedra")

    elim = eliminated_per_node(mesh.n_nodes, system.bc)
    rows = []
    for name, fn in PARTITIONERS.items():
        part = fn(mesh, n_ranks)
        stats = partition_statistics(mesh, part)
        dec = Decomposition.from_partition(mesh, part, n_ranks)
        # Solve-side imbalance: free unknowns per rank after elimination.
        free = []
        for rank in range(n_ranks):
            a, b = dec.node_ranges[rank]
            owned = dec.new_to_old[a:b]
            free.append(3 * (b - a) - elim[owned].sum())
        free = np.asarray(free, dtype=float)
        sim = simulate_parallel(
            mesh, system.bc, n_ranks, machine=DEEP_FLOW, partitioner=name
        )
        rows.append(
            [
                name,
                stats["work_balance"],
                float(free.max() / free.mean()),
                stats["edge_cut_fraction"],
                sim.assembly_seconds,
                sim.solve_seconds,
                sim.solver.iterations,
            ]
        )

    print()
    print(
        format_table(
            [
                "partitioner",
                "assembly work imbalance",
                "solve rows imbalance",
                "edge cut",
                "assembly (s)",
                "solve (s)",
                "iters",
            ],
            rows,
            title=f"Decomposition comparison at P={n_ranks} on {DEEP_FLOW.name}",
        )
    )
    print()
    print(
        "block            = the paper's equal-node-count decomposition\n"
        "work_weighted    = the paper's proposed connectivity-aware fix\n"
        "coordinate_bisection = compact geometric subdomains (the pipeline's default)\n"
        "(lower edge cut also reduces halo communication in every matvec)"
    )


if __name__ == "__main__":
    main()
