"""What the two Krylov methods share: the result record, the tolerance, checks.

:func:`repro.solver.gmres.gmres_loop` and :func:`repro.solver.cg.cg_loop`
both return a :class:`KrylovResult`, validate their system with
:func:`checked_system`, report a finished solve's span attributes with
:func:`convergence_attrs` and, in one address space, reduce with
:class:`SerialReduction`. Both import this module and not each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util import ShapeError, ValidationError

#: Relative tolerance of every *production* solve of the package — the
#: pipeline (``PipelineConfig.solver_tol``), the escalation ladder, the
#: coarse fallback, ``simulate_parallel`` / ``distributed_gmres`` /
#: ``distributed_cg`` and the Fig. 7-9 experiments: PETSc's ``-ksp_rtol``
#: default, which is what the paper's GMRES + block Jacobi ran at (it
#: names no convergence setting). It is relative, and each method reads
#: it on its own residual. GMRES (``block_jacobi``) stops on the
#: left-preconditioned one, ``||M^{-1}(b - A x)|| <= tol * ||M^{-1} b||``;
#: CG (the pipeline's preconditioner, at every rank count) on the true
#: one, ``||b - A x|| <= tol * ||b||``. Measured with GMRES against a
#: ``1e-10`` solve (``benchmarks/BENCH_solver_tolerance.json``,
#: EXPERIMENTS.md "Solver tolerance"): max nodal |du| 0.4-0.5 um on the
#: 22.8 k-equation, 4-rank benchmark system and 1.4 um at paper size (77 k
#: equations, 16 ranks), against 0.9-3 mm voxels; ``1e-7`` buys 0.004 um
#: for half as many iterations again. CG's field at ``1e-5`` is no further
#: from a direct solve than GMRES's (``tests/test_fsai.py::TestCG``). The
#: generic library entry points (``gmres``, ``conjugate_gradient``)
#: keep their own ``1e-8``.
DEFAULT_SOLVER_TOL = 1e-5


@dataclass
class KrylovResult:
    """Solution and convergence record of a GMRES or CG solve.

    Attributes
    ----------
    x:
        Solution vector.
    converged:
        Whether the residual tolerance was met.
    iterations:
        Total iterations performed (GMRES: inner iterations across
        restarts).
    restarts:
        Number of GMRES restart cycles started; always 0 for CG.
    residual_norm:
        Final residual norm: preconditioned for GMRES, true for CG.
    history:
        That residual norm after every iteration.
    rhs_norm:
        The norm the tolerance is relative to (``||M^{-1} b||`` for
        GMRES, ``||b||`` for CG); ``0.0`` where there is none — a zero
        right-hand side, a direct solve, a restored record.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    restarts: int
    residual_norm: float
    history: list[float] = field(default_factory=list)
    rhs_norm: float = 0.0


def convergence_attrs(result: KrylovResult, tol: float) -> dict:
    """What a finished ``gmres`` or ``cg`` span says about its solve.

    ``target`` is the absolute residual the run had to reach and
    ``residual_history`` the whole curve (:attr:`KrylovResult.history`, a
    few hundred floats at most), so a trace shows how the solve got
    there and not only where it stopped.
    """
    return {
        "iterations": result.iterations,
        "restarts": result.restarts,
        "residual": result.residual_norm,
        "converged": result.converged,
        "target": tol * result.rhs_norm,
        "residual_history": result.history,
    }


def checked_system(n: int, b, x0, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Validate one right-hand side; return ``(b, x)`` with ``x`` a fresh start vector."""
    b = np.asarray(b, dtype=float).ravel()
    if b.shape != (n,):
        raise ShapeError(f"b must be ({n},), got {b.shape}")
    if tol <= 0:
        raise ValidationError(f"tol must be > 0, got {tol}")
    if not np.all(np.isfinite(b)):
        raise ValidationError(
            f"b contains {int(np.count_nonzero(~np.isfinite(b)))} non-finite entries"
        )
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (n,):
        raise ShapeError(f"x0 must be ({n},), got {x.shape}")
    if x0 is not None and not np.all(np.isfinite(x)):
        raise ValidationError(
            f"x0 contains {int(np.count_nonzero(~np.isfinite(x)))} non-finite entries"
        )
    return b, x


class SerialReduction:
    """Vector reductions of the Krylov loops in one address space.

    Modified Gram-Schmidt, ``np.dot`` and ``np.linalg.norm``, charging
    nothing. The per-rank counterpart (fused CGS2 and per-rank partial
    sums with telemetry charges) is
    :class:`repro.parallel.solver.RankReduction`.
    """

    def norm(self, v: np.ndarray) -> float:
        return float(np.linalg.norm(v))

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.dot(u, v))

    def orthogonalize(self, V: np.ndarray, H: np.ndarray, k: int, w: np.ndarray) -> np.ndarray:
        """Orthogonalise ``w`` against ``V[:k+1]`` into ``H[:k+1, k]``; returns ``w``."""
        for i in range(k + 1):
            H[i, k] = float(np.dot(w, V[i]))
            w -= H[i, k] * V[i]
        return w

    def axpy_cost(self, n_vectors: int = 1) -> None:
        """Charge ``n_vectors`` axpy/scale passes (free in one address space)."""
