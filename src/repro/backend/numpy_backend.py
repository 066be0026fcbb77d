"""Reference numpy implementation of the compute-backend kernels.

This is the always-available backend and the base class of every other
one: pure numpy/scipy, no optional dependencies. An accelerated backend
overrides :meth:`NumpyBackend.csr_matvec` and
:meth:`NumpyBackend.prepare_block_apply` and is validated against them
(parity <= 1e-10 in ``tests/test_backend.py``).
"""

from __future__ import annotations

import numpy as np


class ScipyBlockApply:
    """Sequential per-block SuperLU solves (the reference application).

    Built once per preconditioner, then called on every Krylov iteration
    with a preallocated output buffer: ``out[a:b] = solve(block_k,
    r[a:b])`` for every block.
    """

    def __init__(self, ranges, factors):
        self.ranges = [(int(a), int(b)) for a, b in ranges]
        self.factors = list(factors)

    def __call__(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        for (a, b), factor in zip(self.ranges, self.factors):
            out[a:b] = factor.solve(r[a:b])
        return out


class NumpyBackend:
    """The two kernels of the Krylov solve loop, in numpy — the reference.

    Stateless, so one instance is shared process-wide; kernels take and
    return plain numpy arrays.
    """

    #: Registry identity; also hashed into solve-context fingerprints so
    #: a cached block apply is never served to another backend.
    name = "numpy"

    def csr_matvec(self, matrix, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y = A @ x`` for a scipy CSR matrix (rectangular allowed).

        Writes into ``out`` when given (a contiguous view is fine) and
        returns the result either way.
        """
        y = matrix @ x
        if out is not None:
            out[:] = y
            return out
        return np.asarray(y)

    def prepare_block_apply(self, ranges, factors) -> ScipyBlockApply:
        """Pack per-block LU/ILU factors for repeated application.

        ``ranges`` is a sequence of half-open ``(start, stop)`` row
        ranges tiling ``[0, n)``; ``factors[k]`` is the SuperLU object
        of block ``k`` (``scipy.sparse.linalg.splu``/``spilu`` result).
        The result is called as ``apply(r, out)``. An override may repack
        the factors; it must reproduce ``factors[k].solve`` to <= 1e-10.
        """
        return ScipyBlockApply(ranges, factors)

    def coo_accumulate(
        self, scatter: np.ndarray, values: np.ndarray, nnz: int
    ) -> np.ndarray:
        """Accumulate COO triplet values into CSR data slots.

        ``scatter[i]`` is the position of triplet ``i`` inside the
        canonical CSR ``data`` array (duplicates share a slot); returns
        the dense ``(nnz,)`` data vector as a weighted bincount. The
        assembly does not call it: it is the one-shot form the blocked
        fill (:func:`repro.fem.assembly.fill_csr_values`) is held
        bit-identical to, and the end-to-end benchmark's probes time it.
        """
        return np.bincount(scatter, weights=values, minlength=nnz)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
