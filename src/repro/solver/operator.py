"""Minimal linear-operator protocol used by the Krylov solvers.

The solvers only ever need ``shape`` and ``matvec``; anything providing
those works, including the distributed operators in
:mod:`repro.parallel.distributed` whose matvec hides communication. A
CSR matrix — the assembled stiffness, the solve loop's hot path — is
multiplied by the compute backend's ``csr_matvec`` (:mod:`repro.backend`),
one of the two kernels the backend keeps.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np
from scipy import sparse

from repro.backend import get_backend
from repro.util import ShapeError


@runtime_checkable
class LinearOperator(Protocol):
    """Anything with a shape and a matrix-vector product."""

    @property
    def shape(self) -> tuple[int, int]: ...

    def matvec(self, x: np.ndarray) -> np.ndarray: ...


class MatrixOperator:
    """Wrap a scipy sparse matrix (or dense array) as a LinearOperator.

    CSR matrices — the assembled stiffness systems, i.e. the hot path —
    are multiplied through the active compute backend's ``csr_matvec``
    kernel; every other matrix type falls back to ``matrix @ x``.
    """

    def __init__(self, matrix):
        self._matrix = matrix
        if matrix.shape[0] != matrix.shape[1]:
            raise ShapeError(f"operator must be square, got {matrix.shape}")
        self._is_csr = sparse.issparse(matrix) and matrix.format == "csr"

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        if self._is_csr:
            return get_backend().csr_matvec(
                self._matrix, np.asarray(x, dtype=float).ravel()
            )
        y = self._matrix @ x
        return np.asarray(y).ravel()


def AsOperator(operator) -> LinearOperator:
    """Normalize matrices/operators to the LinearOperator protocol."""
    if isinstance(operator, (np.ndarray,)) or sparse.issparse(operator):
        return MatrixOperator(operator)
    if isinstance(operator, LinearOperator):
        return operator
    raise ShapeError(f"cannot interpret {type(operator)!r} as a linear operator")
