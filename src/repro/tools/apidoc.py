"""Generate docs/API.md from the package's docstrings.

Walks every module under :mod:`repro`, collects public classes and
functions (module ``__all__`` when present, else non-underscore names
defined in the module), and emits a markdown reference of one-line
summaries. Run::

    python -m repro.tools.apidoc [--out docs/API.md]
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
from pathlib import Path

import repro


def _summary(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    return doc.splitlines()[0].strip()


def iter_modules() -> list[str]:
    """Dotted names of every module in the repro package, sorted."""
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


def public_members(module) -> list[tuple[str, object]]:
    """(name, object) pairs the module intentionally exposes."""
    if hasattr(module, "__all__"):
        names = list(module.__all__)
    else:
        names = [n for n in vars(module) if not n.startswith("_")]
    members = []
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        defined_in = getattr(obj, "__module__", None)
        if hasattr(module, "__all__") or defined_in == module.__name__:
            if inspect.isclass(obj) or inspect.isfunction(obj):
                members.append((name, obj))
    return members


def generate(out_path: Path) -> Path:
    """Write the markdown API reference to ``out_path``; returns it."""
    lines = [
        "# API reference",
        "",
        "One-line summaries of every public class and function, generated",
        "by `python -m repro.tools.apidoc`. See the docstrings for details.",
        "",
    ]
    for module_name in iter_modules():
        module = importlib.import_module(module_name)
        members = public_members(module)
        # Skip pure re-export package __init__ modules to avoid duplicates,
        # except the top-level package.
        if module_name.count(".") >= 1 and module_name.rsplit(".", 1)[1] in (
            "__init__",
        ):
            continue
        is_package = hasattr(module, "__path__")
        if is_package and module_name != "repro":
            lines.append(f"## `{module_name}`")
            lines.append("")
            lines.append(_summary(module))
            lines.append("")
            continue
        if not members:
            continue
        if module_name == "repro":
            lines.append("## `repro` (top level)")
        else:
            lines.append(f"### `{module_name}`")
        lines.append("")
        lines.append(_summary(module))
        lines.append("")
        for name, obj in sorted(members):
            kind = "class" if inspect.isclass(obj) else "def"
            lines.append(f"- **{kind} `{name}`** — {_summary(obj)}")
        lines.append("")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines))
    return out_path


def main(argv=None) -> None:
    """CLI entry point (``python -m repro.tools.apidoc``)."""
    parser = argparse.ArgumentParser(description=__doc__)
    default = Path(__file__).resolve().parents[3] / "docs" / "API.md"
    parser.add_argument("--out", type=Path, default=default)
    args = parser.parse_args(argv)
    path = generate(args.out)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
