"""Subprocess crash drills: kill the CLI mid-session, resume, replay.

These are the acceptance drills of the durable-session layer, run
against the real CLI in a real subprocess (an in-process ``os._exit``
would take pytest down with it):

1. a ``crash-after`` fault kills the process at a persistence barrier
   (exit code 137, like SIGKILL);
2. the checkpoint directory left behind is consistent — the journal
   shows the interrupted scan, nothing is torn;
3. ``--resume`` completes the remaining scans, re-using the restored
   prototype set on a rebuilt solve context;
4. ``repro replay`` re-runs every journaled scan and reproduces the
   committed displacement-field checksums exactly.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = [pytest.mark.persistence, pytest.mark.faults]

SRC = Path(__file__).resolve().parents[1] / "src"
BASE = [
    "pipeline",
    "--shape", "28", "28", "20",
    "--cell", "9",
    "--cpus", "2",
    "--scans", "3",
    "--seed", "5",
]


def run_cli(args, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def journal_types(ckpt: Path) -> list[str]:
    return [
        json.loads(line)["type"]
        for line in (ckpt / "journal.jsonl").read_text().splitlines()
        if line.strip()
    ]


class TestCrashAfterSolve:
    def test_crash_resume_replay(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        crashed = run_cli(
            [*BASE, "--checkpoint-dir", str(ckpt), "--faults", "1:crash-after=solve"],
            tmp_path,
        )
        assert crashed.returncode == 137, crashed.stderr

        # Consistent post-crash state: scan 0 committed, scan 1 begun
        # (its input preserved) but not committed, the crash journaled.
        types = journal_types(ckpt)
        assert types == ["meta", "begin", "commit", "begin", "crash"]
        manifest = json.loads((ckpt / "MANIFEST.json").read_text())
        assert manifest["n_committed"] == 1

        resumed = run_cli(["pipeline", "--resume", "--checkpoint-dir", str(ckpt)], tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        assert "restored" in resumed.stdout, "scan 0 must show as restored"
        # The interrupted scan re-runs on the rebuilt context: a cache hit.
        assert re.search(r"\| hit +\|", resumed.stdout), resumed.stdout
        assert "3 scan(s) committed" in resumed.stdout

        replay = run_cli(["replay", str(ckpt)], tmp_path)
        assert replay.returncode == 0, replay.stdout + replay.stderr
        assert "REPLAY OK: 3 matched, 0 mismatched" in replay.stdout


class TestCrashMidManifestWrite:
    def test_torn_manifest_write_is_harmless(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        crashed = run_cli(
            [*BASE, "--checkpoint-dir", str(ckpt), "--faults", "1:crash-after=mid-write"],
            tmp_path,
        )
        assert crashed.returncode == 137, crashed.stderr
        # The torn temp file is there; the real manifest is untouched.
        assert any(p.suffix == ".tmp" for p in ckpt.glob("MANIFEST.json.*"))
        manifest = json.loads((ckpt / "MANIFEST.json").read_text())
        assert manifest["n_committed"] == 1

        resumed = run_cli(["pipeline", "--resume", "--checkpoint-dir", str(ckpt)], tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        assert "3 scan(s) committed" in resumed.stdout

        replay = run_cli(["replay", str(ckpt)], tmp_path)
        assert replay.returncode == 0, replay.stdout + replay.stderr
        assert "REPLAY OK" in replay.stdout
