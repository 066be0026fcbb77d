"""The numpy kernels the end-to-end benchmark's probes time by name.

The solver calls scipy directly (``A @ x``, SuperLU's ``solve``); this
module keeps the three kernels ``benchmarks/e2e/`` imports, under the
one name its records carry (``backend=numpy``): the CSR mat-vec, the
per-block LU application and the one-shot COO accumulation the blocked
assembly fill is held bit-identical to.
"""

from __future__ import annotations

import numpy as np


class NumpyBackend:
    """The CSR mat-vec, block-LU apply and COO accumulation, in numpy.

    Stateless; :func:`get_backend` returns the one shared instance.
    """

    #: The name the benchmark records carry.
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

    def prepare_block_apply(self, ranges, factors):
        """Sequential per-block solves, called as ``apply(r, out)``.

        ``ranges`` is a sequence of half-open ``(start, stop)`` row
        ranges tiling ``[0, n)``; ``factors[k]`` is the SuperLU object
        of block ``k`` (``scipy.sparse.linalg.splu``/``spilu`` result).
        The apply writes ``out[a:b] = factors[k].solve(r[a:b])`` for
        every block and returns ``out``.
        """
        ranges = [(int(a), int(b)) for a, b in ranges]
        factors = list(factors)

        def apply(r: np.ndarray, out: np.ndarray) -> np.ndarray:
            for (a, b), factor in zip(ranges, factors):
                out[a:b] = factor.solve(r[a:b])
            return out

        return apply

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


_BACKEND = NumpyBackend()


def get_backend() -> NumpyBackend:
    """The one :class:`NumpyBackend`."""
    return _BACKEND
