"""Tier-1 gate: the source tree passes its own static analysis.

Runs every registered rule of every pack over ``src/repro`` — the same
``run_suite`` call ``repro-analyze src`` makes — and fails on any
unsuppressed violation.  This is the enforcement point for the
determinism / unit / tie-break / reservation discipline documented in
``docs/static_analysis.md``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis.front import run_suite
from repro.analysis.lint import PACKS, render_text

SRC_REPRO = Path(repro.__file__).resolve().parent


@pytest.fixture(scope="module")
def findings():
    return run_suite([SRC_REPRO])


@pytest.mark.parametrize("pack", PACKS)
def test_src_tree_passes_static_analysis(findings, pack):
    assert not findings[pack], (
        f"{pack} violations in src/repro (fix them, or suppress with a "
        f"justified '# repro: disable=' comment — see "
        f"docs/static_analysis.md):\n" + render_text(findings[pack]))
