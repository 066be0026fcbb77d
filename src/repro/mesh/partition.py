"""Node partitioning for the parallel decomposition.

The paper's decomposition "is based on sending approximately equal
numbers of mesh nodes to each CPU" — :func:`partition_block`. It also
identifies the resulting load imbalance (unequal node connectivity in
assembly; unequal boundary-condition elimination in the solve) and
proposes connectivity-aware decompositions as future work — implemented
here as :func:`partition_work_weighted` — plus
:func:`partition_coordinate_bisection`, the compact geometric split the
intraoperative pipeline runs on.

All partitioners return an ``(n_nodes,)`` integer array of rank ids in
``[0, n_parts)``; every rank receives at least one node when
``n_parts <= n_nodes``.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.tetra import TetrahedralMesh
from repro.util import ValidationError


def _check_parts(n_nodes: int, n_parts: int) -> None:
    if n_parts < 1:
        raise ValidationError(f"n_parts must be >= 1, got {n_parts}")
    if n_parts > n_nodes:
        raise ValidationError(f"n_parts={n_parts} exceeds n_nodes={n_nodes}")


def partition_block(mesh: TetrahedralMesh, n_parts: int) -> np.ndarray:
    """Contiguous equal-count blocks of the node index order (paper's scheme).

    The mesher emits nodes in lexicographic grid order, so blocks are
    spatially coherent slabs — matching the behaviour whose imbalance the
    paper analyses.
    """
    _check_parts(mesh.n_nodes, n_parts)
    # Split indices into n_parts nearly equal contiguous runs.
    bounds = np.linspace(0, mesh.n_nodes, n_parts + 1).astype(np.intp)
    part = np.empty(mesh.n_nodes, dtype=np.intp)
    for rank in range(n_parts):
        part[bounds[rank] : bounds[rank + 1]] = rank
    return part


def partition_work_weighted(
    mesh: TetrahedralMesh,
    n_parts: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Contiguous blocks balanced by per-node *work* instead of count.

    ``weights`` defaults to node-element connectivity (the paper's
    assembly work proxy). This is the paper's proposed fix for the
    assembly imbalance: blocks are cut so each rank holds approximately
    equal total weight.
    """
    _check_parts(mesh.n_nodes, n_parts)
    w = mesh.node_element_counts().astype(float) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (mesh.n_nodes,):
        raise ValidationError(f"weights must be ({mesh.n_nodes},), got {w.shape}")
    if np.any(w < 0):
        raise ValidationError("weights must be non-negative")
    cumulative = np.cumsum(w)
    total = cumulative[-1]
    part = np.empty(mesh.n_nodes, dtype=np.intp)
    prev = 0
    for rank in range(n_parts):
        if rank == n_parts - 1:
            cut = mesh.n_nodes
        else:
            target = total * (rank + 1) / n_parts
            cut = int(np.searchsorted(cumulative, target))
            # Keep at least one node per rank and never run past the end.
            cut = max(cut, prev + 1)
            cut = min(cut, mesh.n_nodes - (n_parts - 1 - rank))
        part[prev:cut] = rank
        prev = cut
    return part


def partition_coordinate_bisection(mesh: TetrahedralMesh, n_parts: int) -> np.ndarray:
    """Recursive coordinate bisection on node positions.

    Splits the widest spatial axis at the weighted median, recursively,
    producing compact axis-aligned subdomains with small interfaces.
    """
    _check_parts(mesh.n_nodes, n_parts)
    part = np.zeros(mesh.n_nodes, dtype=np.intp)

    def recurse(indices: np.ndarray, parts: int, first_rank: int) -> None:
        if parts == 1:
            part[indices] = first_rank
            return
        left_parts = parts // 2
        coords = mesh.nodes[indices]
        axis = int(np.argmax(coords.max(axis=0) - coords.min(axis=0)))
        order = indices[np.argsort(coords[:, axis], kind="stable")]
        cut = int(round(len(order) * left_parts / parts))
        cut = min(max(cut, left_parts), len(order) - (parts - left_parts))
        recurse(order[:cut], left_parts, first_rank)
        recurse(order[cut:], parts - left_parts, first_rank + left_parts)

    recurse(np.arange(mesh.n_nodes, dtype=np.intp), n_parts, 0)
    return part


def partition_statistics(mesh: TetrahedralMesh, part: np.ndarray) -> dict[str, float]:
    """Balance and interface statistics for a partition.

    Reports node-count balance, work (connectivity) balance — the
    paper's assembly-imbalance measure — and the edge cut fraction.
    """
    part = np.asarray(part)
    n_parts = int(part.max()) + 1
    counts = np.bincount(part, minlength=n_parts).astype(float)
    work = np.bincount(part, weights=mesh.node_element_counts(), minlength=n_parts)
    edges = mesh.edge_array()
    cut = float(np.mean(part[edges[:, 0]] != part[edges[:, 1]])) if len(edges) else 0.0
    return {
        "n_parts": float(n_parts),
        "node_balance": float(counts.max() / counts.mean()),
        "work_balance": float(work.max() / work.mean()),
        "edge_cut_fraction": cut,
    }
