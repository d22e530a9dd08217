"""Assemble per-file summaries into the suite's one shared Program.

Per-file extraction (:func:`repro.analysis.verify.model.summarize_file`)
is a pure function of the file's bytes, so its JSON output rides in
the suite's cache (``summary`` part).  Program assembly and rule
evaluation re-run every invocation — they depend on *all* files, and
are cheap next to parsing — so findings always reflect the current
cross-module facts even when every summary came from cache.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.analysis.lint.cache import AnalysisCache
from repro.analysis.lint.core import iter_python_files
from repro.analysis.verify.model import Program, summarize_file

__all__ = ["build_program"]


def build_program(paths: Iterable[Path], cache: AnalysisCache) -> Program:
    """Summarize every ``*.py`` under ``paths`` and assemble a Program."""
    return Program([cache.lookup(path, "summary", summarize_file)
                    for path in iter_python_files(paths)])
