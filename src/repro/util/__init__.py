"""Shared low-level utilities used across every subsystem.

This subpackage deliberately has no dependency on the rest of
:mod:`repro`; everything else is allowed to import from it.
"""

from repro.util.atomicio import (
    atomic_payload,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    atomic_writer,
    checksum_array,
    checksum_bytes,
    checksum_file,
)
from repro.util.errors import (
    ConvergenceError,
    MeshError,
    RankFailure,
    ReproError,
    ShapeError,
    ValidationError,
)
from repro.util.rng import default_rng
from repro.util.tables import format_table
from repro.util.timing import Timer, WallClock
from repro.util.validation import (
    check_finite,
    check_positive,
    check_shape,
    check_volume_like,
)

__all__ = [
    "ConvergenceError",
    "MeshError",
    "RankFailure",
    "ReproError",
    "ShapeError",
    "Timer",
    "ValidationError",
    "WallClock",
    "atomic_payload",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "atomic_writer",
    "checksum_array",
    "checksum_bytes",
    "checksum_file",
    "check_finite",
    "check_positive",
    "check_shape",
    "check_volume_like",
    "default_rng",
    "format_table",
]
