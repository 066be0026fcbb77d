"""Runtime backend selection.

The active backend is the one named by the last :func:`set_backend` /
:func:`use_backend` call (the CLI's ``--backend`` flag lands here);
without one it is auto-detected on first use: ``numba`` when it can JIT
on this host, else ``numpy``.

Requesting an unavailable accelerated backend *degrades* rather than
errors: a one-line :class:`RuntimeWarning` is emitted and the numpy
reference is used, so a missing optional dependency can never take down
an intraoperative run. ``numpy`` is always available.

The active backend's ``name`` is hashed into
:meth:`repro.fem.SolveContext.fingerprint`, so a block apply cached
under one backend is rebuilt automatically when the backend changes
mid-session.
"""

from __future__ import annotations

import importlib.util
import os
import warnings
from contextlib import contextmanager

from repro.backend.numpy_backend import NumpyBackend
from repro.util import ValidationError

_active: NumpyBackend | None = None


def _make_numba() -> NumpyBackend:
    from repro.backend.numba_backend import NumbaBackend

    return NumbaBackend()


def numba_available() -> bool:
    """Whether the numba backend can actually JIT on this host.

    False when numba is not installed *or* ``NUMBA_DISABLE_JIT`` is set
    (kernels would run as interpreted Python — far slower than numpy).
    """
    if os.environ.get("NUMBA_DISABLE_JIT", "0") not in ("", "0"):
        return False
    return importlib.util.find_spec("numba") is not None


def available_backends() -> dict[str, bool]:
    """Backend names -> currently usable on this host."""
    return {"numpy": True, "numba": numba_available()}


def _create(name: str) -> NumpyBackend:
    name = name.strip().lower()
    if name == "numpy":
        return NumpyBackend()
    if name != "numba":
        raise ValidationError(
            f"unknown compute backend {name!r}; options: ['numba', 'numpy']"
        )
    if not numba_available():
        warnings.warn(
            "numba backend requested but unavailable (numba not installed or "
            "NUMBA_DISABLE_JIT set); falling back to the numpy reference",
            RuntimeWarning,
            stacklevel=3,
        )
        return NumpyBackend()
    try:
        return _make_numba()
    except Exception as exc:
        warnings.warn(
            f"compute backend {name!r} failed to initialize "
            f"({type(exc).__name__}: {exc}); falling back to the numpy reference",
            RuntimeWarning,
            stacklevel=3,
        )
        return NumpyBackend()


def get_backend() -> NumpyBackend:
    """The active compute backend (auto-detected on first use)."""
    global _active
    if _active is None:
        _active = _create("numba" if numba_available() else "numpy")
    return _active


def set_backend(name: str) -> NumpyBackend:
    """Select the backend process-wide; returns the activated instance.

    The returned backend may be the numpy fallback when the requested
    one is unavailable (a warning is emitted). Cached solve contexts
    built under the previous backend invalidate automatically through
    the fingerprint.
    """
    global _active
    _active = _create(name)
    return _active


def reset_backend() -> None:
    """Drop the active selection; the next get_backend() auto-detects again."""
    global _active
    _active = None


@contextmanager
def use_backend(name: str):
    """Temporarily activate a backend within a ``with`` block."""
    global _active
    previous = _active
    _active = _create(name)
    try:
        yield _active
    finally:
        _active = previous
