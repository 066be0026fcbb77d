"""Tests for the API-reference generator."""

from __future__ import annotations

import pytest

from repro.tools import apidoc
from repro.tools.apidoc import generate, iter_modules, public_members


class TestApidoc:
    def test_iter_modules_covers_subpackages(self):
        modules = iter_modules()
        assert "repro" in modules
        for expected in (
            "repro.fem.model",
            "repro.mesh.generator",
            "repro.parallel.solver",
            "repro.machines.spec",
            "repro.viz.render",
        ):
            assert expected in modules

    def test_public_members_respects_all(self):
        import repro.imaging as imaging

        names = [n for n, _ in public_members(imaging)]
        assert "ImageVolume" in names
        assert not any(n.startswith("_") for n in names)

    def test_generate_writes_markdown(self, tmp_path):
        out = generate(tmp_path / "API.md")
        text = out.read_text()
        assert text.startswith("# API reference")
        assert "`repro.fem.model`" in text
        assert "BiomechanicalModel" in text

    def test_everything_documented(self, tmp_path):
        """No public class/function may lack a docstring."""
        text = generate(tmp_path / "API.md").read_text()
        assert "(undocumented)" not in text

    def test_unimportable_module_raises(self, tmp_path, monkeypatch):
        """A module that does not import fails the run instead of being listed."""
        monkeypatch.setattr(apidoc, "iter_modules", lambda: ["repro", "repro.no_such_module"])
        with pytest.raises(ImportError):
            generate(tmp_path / "API.md")
        assert not (tmp_path / "API.md").exists()
