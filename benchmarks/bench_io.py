"""Merge-updating writes of the shared benchmark records.

Two benchmark modules contribute to the same ``BENCH_hotpath.json`` — the
cold-vs-warm (fresh build vs prepared context) hot-path comparison
(``test_hotpath_reuse.py``) and the kernel timing column
(``test_kernels.py``) — so each writes by reading the existing record
and replacing only its own top-level keys. ``results.txt`` holds every
exhibit's table, and a bench session that runs some exhibits replaces
only theirs (:func:`record_exhibit`).
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


def _exhibits(text: str) -> dict[str, str]:
    """``results.txt``'s exhibits by name, in file order.

    Exhibits are separated by a blank line. One starts with its table's
    title line, ``"<exhibit>: <title>"`` over a header and a ``---+---``
    rule; a block without such a title (Fig. 6's Gantt chart) belongs to
    the exhibit before it.
    """
    exhibits: dict[str, str] = {}
    name = None
    for block in text.split("\n\n"):
        lines = block.strip("\n").splitlines()
        if not lines:
            continue
        head, colon, _ = lines[0].partition(": ")
        if colon and len(lines) > 2 and set(lines[2].strip()) <= set("-+"):
            name = head
            exhibits[name] = block.strip("\n")
        elif name is not None:
            exhibits[name] += "\n\n" + block.strip("\n")
    return exhibits


def record_exhibit(path: pathlib.Path, exhibit: str, text: str) -> None:
    """Write ``text`` as ``exhibit``'s table in ``path``, keeping every other.

    An exhibit already in the file is replaced where it stands; a new one
    is appended.
    """
    exhibits = _exhibits(path.read_text()) if path.exists() else {}
    exhibits[exhibit] = text
    path.write_text("".join(f"{table}\n\n" for table in exhibits.values()))
