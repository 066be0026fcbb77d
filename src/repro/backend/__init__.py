"""Compute backends for the two kernels the Krylov solve loop spends its time in.

The CSR mat-vec and the block-LU preconditioner application run through
a runtime-selectable backend:

* ``numpy`` — :class:`NumpyBackend`, scipy's CSR product and SuperLU's
  per-block solves: the reference, the base class, always available;
* ``numba`` — ``NumbaBackend(NumpyBackend)``, ``@njit(parallel=True)``
  overrides of those two kernels (``prange`` over rows / blocks),
  lazily compiled, degrading to numpy with a warning when numba is
  missing or a kernel fails.

Select with the CLI flag ``--backend`` or :func:`set_backend` /
:func:`use_backend`; otherwise auto-detection prefers numba when it can
JIT. The active backend's name is part of every solve-context
fingerprint, so a cached block apply is never reused across backends.
"""

from repro.backend.numpy_backend import NumpyBackend
from repro.backend.registry import (
    available_backends,
    get_backend,
    numba_available,
    reset_backend,
    set_backend,
    use_backend,
)

__all__ = [
    "NumpyBackend",
    "available_backends",
    "get_backend",
    "numba_available",
    "reset_backend",
    "set_backend",
    "use_backend",
]
