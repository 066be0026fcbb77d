"""Shared benchmark fixtures.

The clinical-scale systems are expensive to build, so they are
constructed once per session and shared across the figure benchmarks.
Regenerated tables are printed to stdout (run with ``-s`` to see them
live; pytest captures otherwise) and appended to
``benchmarks/results.txt`` for the EXPERIMENTS.md record.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.common import (
    PAPER_SYSTEM_LARGE,
    PAPER_SYSTEM_SMALL,
    build_clinical_system,
)

RESULTS_PATH = pathlib.Path(__file__).with_name("results.txt")

#: ``REPRO_BENCH_SMOKE=1`` (the CI bench-smoke job) swaps the paper-scale
#: systems for small ones: every benchmark still runs end-to-end and
#: writes its ``BENCH_*.json`` record, but in minutes, not hours. The
#: records are marked unofficial by the reduced system sizes they embed.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


@pytest.fixture(scope="session")
def system77_equations():
    """The size ``system77`` is built for (what its mesh size search aims at)."""
    return 12000 if SMOKE else PAPER_SYSTEM_SMALL


@pytest.fixture(scope="session")
def system77(system77_equations):
    """The paper's 77,511-equation clinical system (25,837 nodes)."""
    if SMOKE:
        return build_clinical_system(system77_equations, shape=(48, 48, 36))
    return build_clinical_system(system77_equations)


@pytest.fixture(scope="session")
def system253():
    """The paper's 253,308-equation high-resolution system."""
    if SMOKE:
        return build_clinical_system(20000, shape=(56, 56, 42))
    return build_clinical_system(PAPER_SYSTEM_LARGE, shape=(128, 128, 96))


@pytest.fixture(scope="session")
def record_report():
    """Print a report table and append it to benchmarks/results.txt."""
    seen: set[str] = set()

    def _record(report) -> None:
        text = report.table()
        print("\n" + text)
        if report.exhibit not in seen:
            seen.add(report.exhibit)
            with RESULTS_PATH.open("a") as fh:
                fh.write(text + "\n\n")

    RESULTS_PATH.write_text("")
    return _record
