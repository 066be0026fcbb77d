"""Merge-updating writes of the shared ``BENCH_hotpath.json`` record.

Two benchmark modules contribute to the same file — the cold-vs-warm
(fresh build vs prepared context) hot-path comparison
(``test_hotpath_reuse.py``) and the per-backend kernel columns
(``test_kernels.py``) — so each writes by reading the existing record
and replacing only its own top-level keys.
"""

from __future__ import annotations

import json
import pathlib


def update_bench_record(path: pathlib.Path, updates: dict) -> dict:
    """Merge ``updates`` into the JSON record at ``path`` (top-level keys)."""
    existing: dict = {}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, dict):
                existing = loaded
        except (json.JSONDecodeError, OSError):
            existing = {}
    existing.update(updates)
    path.write_text(json.dumps(existing, indent=2) + "\n")
    return existing
