"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong value, range, or type)."""


class ShapeError(ValidationError):
    """An array argument has an incompatible shape."""


class MeshError(ReproError):
    """A mesh is structurally invalid (orphan nodes, inverted elements...)."""


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its budget.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Final residual (algorithm specific norm), if known.
    solver:
        Which algorithm failed (``"gmres"``, ``"cg"``,
        ``"distributed_gmres"``, ``"escalation"``, ...), so recovery code
        can attribute the failure without parsing the message.
    stage:
        Pipeline stage the failure occurred in, when known (filled by
        the resilience layer's stage guards).
    """

    def __init__(
        self,
        message: str,
        iterations: int = -1,
        residual: float = float("nan"),
        solver: str | None = None,
        stage: str | None = None,
    ):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.solver = solver
        self.stage = stage


class RankFailure(ReproError):
    """A (virtual) compute rank died or became unreachable mid-phase.

    The distributed layer raises this when a fault plan kills a rank;
    the resilience layer responds with dynamic resource substitution
    (re-solving on the surviving resources — typically ``n_ranks=1``).

    Attributes
    ----------
    rank:
        Index of the failed rank.
    phase:
        Execution phase the failure surfaced in (``"solve"``, ...).
    """

    def __init__(self, message: str, rank: int = -1, phase: str = ""):
        super().__init__(message)
        self.rank = rank
        self.phase = phase
