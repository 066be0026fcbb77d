"""Scan-invariant solve contexts: precompute once, reuse every scan.

The paper's headline constraint is *intraoperative* latency, and it
notes that initialization work "can be overlapped with earlier image
processing" when time is plentiful (preoperatively). Everything the FEM
stage computes that does not depend on the newly acquired scan is
therefore hoisted into context objects built once per patient:

* :class:`AssemblyContext` — the symbolic/numeric split of global
  stiffness assembly (PETSc's ``MatAssembly`` phases): the CSR sparsity
  pattern and the node-pair column offsets are *symbolic* (topology
  only); the blocked element-matrix computation and CSR value fill are
  *numeric* (geometry + materials) and can be refreshed without
  re-deriving the pattern. Nothing element-sized beyond ``16 m`` int32
  is retained.

* :class:`ReductionContext` — the Dirichlet elimination structure for a
  fixed constrained-DOF set (the brain-surface nodes, identical every
  scan): the free/fixed partition, the reduced free-DOF matrix, and the
  coupling block ``K[free, fixed]``. Per scan only the right-hand side
  ``f_free - K[free, fixed] @ u_fixed`` changes.

* :class:`SolveContext` — the top-level per-patient cache threaded
  through :class:`repro.core.IntraoperativePipeline`. It owns the two
  contexts above, opaque slots the parallel layer populates
  (decomposition, row-block matrix, factorized preconditioner) and
  hit/miss/invalidation counters. It holds nothing a scan leaves
  behind: every Krylov solve starts from zero, so a scan's field depends
  only on the patient model and that scan. A fingerprint over the mesh,
  materials, constrained node set and solver configuration detects
  staleness: a resection (mesh edit) or material change invalidates the
  cache and triggers a full rebuild.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from repro.backend import get_backend
from repro.fem.assembly import (
    element_entry_slots,
    element_stiffness_matrices,
    fill_csr_values,
    node_pair_pattern,
    stiffness_of_block,
)
from repro.fem.bc import ReducedSystem, eliminate_fixed
from repro.fem.element import shape_function_gradients, strain_displacement_matrices
from repro.fem.material import MaterialMap
from repro.mesh.tetra import TetrahedralMesh
from repro.obs.trace import get_tracer
from repro.util import ShapeError


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters of a :class:`SolveContext`.

    ``hits`` counts scans served entirely from precomputed state,
    ``misses`` counts full builds (the first scan, or any rebuild), and
    ``invalidations`` counts the times previously cached state had to be
    discarded (mesh edit, material change, solver reconfiguration).
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of prepared solves served from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> "CacheStats":
        return replace(self)

    def reset(self) -> None:
        """Zero all counters (a fresh accounting epoch after a rebuild)."""
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_ratio": self.hit_ratio,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CacheStats":
        """The counters of an :meth:`as_dict` record (the ratio follows)."""
        return cls(
            hits=int(data.get("hits", 0)),
            misses=int(data.get("misses", 0)),
            invalidations=int(data.get("invalidations", 0)),
        )


class AssemblyContext:
    """Symbolic + numeric phases of global stiffness assembly.

    The symbolic phase (done once per mesh topology) computes the CSR
    sparsity pattern of the assembled matrix and, per element, the column
    offset of each of its 16 node pairs
    (:func:`repro.fem.assembly.node_pair_pattern`). The numeric phase
    fills ``csr.data`` in element blocks
    (:func:`repro.fem.assembly.fill_csr_values`) — no COO construction,
    no duplicate merging, no index sorting — and can be repeated after a
    material change without re-deriving the pattern.

    The context retains the matrix, its pattern and that ``16 m`` int32
    array, nothing else element-sized: the strain-displacement matrices,
    the element matrices and the ``144 m`` triplet->slot map are
    recomputed per block and dropped. :attr:`B`, :attr:`element_matrices`
    and :attr:`scatter` derive them on request for callers that want the
    whole array (probes, tests); they are never cached.
    """

    def __init__(self, mesh: TetrahedralMesh, materials: MaterialMap):
        self.n_dof = mesh.n_dof
        with get_tracer().span(
            "symbolic assembly",
            kind="fem",
            n_elements=int(mesh.n_elements),
            n_dof=int(mesh.n_dof),
        ) as span:
            self.indices, self.indptr, self._pair_offset = node_pair_pattern(
                mesh.elements, mesh.n_nodes
            )
            self.nnz = int(len(self.indices))
            span.set(nnz=self.nnz)
        self._matrix: sparse.csr_matrix | None = None
        self.refresh_numeric(mesh, materials)

    def refresh_numeric(self, mesh: TetrahedralMesh, materials: MaterialMap) -> None:
        """Numeric phase: refill ``csr.data`` for (possibly new) materials.

        Reuses the cached symbolic pattern; geometry factors, elasticity
        and element matrices are recomputed block by block.
        """
        with get_tracer().span("numeric assembly", kind="fem", nnz=self.nnz):
            # References, not copies: the derived properties below read them.
            self._mesh, self._materials = mesh, materials
            data = fill_csr_values(
                mesh.elements,
                self.indptr,
                self._pair_offset,
                functools.partial(stiffness_of_block, mesh, materials),
            )
            self._matrix = sparse.csr_matrix(
                (data, self.indices, self.indptr), shape=(self.n_dof, self.n_dof)
            )

    def matrix(self) -> sparse.csr_matrix:
        """The assembled global stiffness in CSR form (cached)."""
        assert self._matrix is not None
        return self._matrix

    @property
    def scatter(self) -> np.ndarray:
        """The ``144 m`` int64 triplet->slot map (derived per read, not kept)."""
        return element_entry_slots(
            self._mesh.elements, self.indptr, self._pair_offset
        ).reshape(-1)

    @property
    def element_matrices(self) -> np.ndarray:
        """All ``(m, 12, 12)`` element matrices (derived per read, not kept)."""
        return element_stiffness_matrices(self._mesh, self._materials)

    @property
    def B(self) -> np.ndarray:
        """All ``(m, 6, 12)`` strain-displacement matrices (derived per read, not kept)."""
        gradients, _ = shape_function_gradients(self._mesh.element_coordinates())
        return strain_displacement_matrices(gradients)


class ReductionContext:
    """Precomputed Dirichlet-elimination structure for a fixed DOF set.

    The constrained set (the brain-surface nodes) is identical for every
    scan of a session; only the prescribed *values* change. The reduced
    free-DOF matrix and the coupling block ``K[free, fixed]`` are sliced
    once; per scan, :meth:`reduce` is a single sparse matvec on the
    coupling block.
    """

    def __init__(self, matrix: sparse.csr_matrix, fixed_dofs: np.ndarray):
        n = matrix.shape[0]
        with get_tracer().span(
            "reduction setup", kind="fem", n_dof=int(n), n_fixed=len(fixed_dofs)
        ):
            self.fixed_dofs = np.asarray(fixed_dofs, dtype=np.intp)
            self.free_dofs, self.matrix, self.coupling = eliminate_fixed(
                matrix, self.fixed_dofs
            )

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)

    def reduce(self, values: np.ndarray, rhs: np.ndarray | None = None) -> ReducedSystem:
        """Reduced system for new prescribed values (the per-scan path).

        ``values`` are the prescribed displacements of the fixed DOFs in
        their original order; ``rhs`` is the full-system load vector
        (``None`` means zero — the paper's displacement-driven setup).
        """
        values = np.asarray(values, dtype=float).ravel()
        if values.shape != (len(self.fixed_dofs),):
            raise ShapeError(
                f"values must be ({len(self.fixed_dofs)},), got {values.shape}"
            )
        with get_tracer().span(
            "bc application", kind="fem", n_fixed=len(self.fixed_dofs)
        ):
            coupled = self.coupling @ values
            reduced_rhs = -coupled if rhs is None else rhs[self.free_dofs] - coupled
        return ReducedSystem(
            matrix=self.matrix,
            rhs=np.asarray(reduced_rhs).ravel(),
            free_dofs=self.free_dofs,
            fixed_dofs=self.fixed_dofs,
            fixed_values=values,
        )


class SolveContext:
    """Per-patient cache of scan-invariant FEM state.

    The object owns the assembly and reduction contexts plus a ``slots``
    dict that :func:`repro.parallel.simulate_parallel` populates with its
    scan-invariant state — decomposition, row-block matrix, factorized
    preconditioner. Consistency is enforced by fingerprint: callers
    compute :meth:`fingerprint` over everything the cached state depends
    on and call :meth:`prepare`; a match is a cache hit, a mismatch
    discards the stale state and counts an invalidation.
    """

    def __init__(self) -> None:
        self.assembly: AssemblyContext | None = None
        self.reduction: ReductionContext | None = None
        self.slots: dict[str, object] = {}
        self.stats = CacheStats()
        self._fingerprint: bytes | None = None

    @staticmethod
    def fingerprint(
        mesh: TetrahedralMesh,
        materials: MaterialMap,
        bc_node_ids: np.ndarray,
        **options,
    ) -> bytes:
        """Digest of every input the cached solve state depends on.

        Hashing the mesh arrays costs ~1 ms for clinical meshes —
        negligible against the assembly/factorization work it guards —
        and makes staleness detection automatic: a resected mesh or a
        changed material map produces a different digest. The active
        compute backend's identity is hashed too: the slots hold a block
        apply prepared by that backend, which is never served to another
        (the backends agree only to ~1e-10, not bit-exactly).
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(b"backend:" + get_backend().name.encode())
        h.update(mesh.nodes.tobytes())
        h.update(mesh.elements.tobytes())
        h.update(np.ascontiguousarray(mesh.materials).tobytes())
        h.update(repr(materials).encode())
        h.update(np.ascontiguousarray(bc_node_ids, dtype=np.int64).tobytes())
        h.update(repr(sorted(options.items())).encode())
        return h.digest()

    @property
    def prepared(self) -> bool:
        return self._fingerprint is not None

    def prepare(self, fingerprint: bytes) -> bool:
        """Declare intent to solve under ``fingerprint``.

        Returns ``True`` on a cache hit (all cached state is valid for
        this solve). On a mismatch the stale state is dropped, the new
        fingerprint recorded, and ``False`` returned — the caller must
        rebuild and repopulate.
        """
        if self._fingerprint == fingerprint:
            self.stats.hits += 1
            return True
        if self._fingerprint is not None:
            self.stats.invalidations += 1
        self._clear()
        self._fingerprint = fingerprint
        self.stats.misses += 1
        return False

    def invalidate(self, reset_stats: bool = False) -> None:
        """Explicitly drop all cached state (e.g. after a mesh edit).

        With ``reset_stats=True`` the hit/miss/invalidation counters are also
        zeroed, so a post-failure rebuild starts a fresh accounting
        epoch instead of reporting stale hit ratios.
        """
        if self._fingerprint is not None:
            self.stats.invalidations += 1
        self._clear()
        self._fingerprint = None
        if reset_stats:
            self.stats.reset()

    def _clear(self) -> None:
        self.assembly = None
        self.reduction = None
        self.slots.clear()

    def reset_warm_state(self) -> None:
        """Zero the per-case hit/miss/invalidation counters.

        The cached build is kept, and there is no other per-case state to
        drop: a context handed to a new case of the same patient already
        gives that case's first solve the fields of a fresh session. The
        end-to-end benchmark (``benchmarks/e2e/``) still calls this name;
        it goes with the next change to that benchmark.
        """
        self.stats.reset()
