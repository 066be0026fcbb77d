"""Pluggable compute backends for the FEM, preconditioner and sampling hot path.

The pipeline's numeric kernels — batched element stiffness, strain and
stress products, COO triplet accumulation, CSR mat-vec, block-wise
preconditioner application, and the multi-channel trilinear gather — run
through a runtime-selectable :class:`ComputeBackend`:

* ``numpy`` — the vectorized reference implementation, always available;
* ``numba`` — ``@njit(parallel=True)`` kernels with ``prange`` over
  elements/blocks, lazily compiled, silently degrading to numpy when
  numba is missing.

Select with the CLI flag ``--backend``, the ``REPRO_BACKEND``
environment variable, or :func:`set_backend` / :func:`use_backend`;
auto-detection prefers numba when importable. The active backend's name
is part of every solve-context fingerprint, so cached assembled state is
never reused across backends. New implementations (e.g. a GPU/cupy
port) plug in through :func:`register_backend`.
"""

from repro.backend.base import BlockApply, ComputeBackend
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.registry import (
    BACKEND_ENV,
    available_backends,
    get_backend,
    numba_available,
    register_backend,
    reset_backend,
    set_backend,
    use_backend,
)

__all__ = [
    "BACKEND_ENV",
    "BlockApply",
    "ComputeBackend",
    "NumpyBackend",
    "available_backends",
    "get_backend",
    "numba_available",
    "register_backend",
    "reset_backend",
    "set_backend",
    "use_backend",
]
