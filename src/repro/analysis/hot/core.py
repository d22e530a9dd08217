"""Join per-file hot-cost facts onto the shared Program.

Extraction (:func:`repro.analysis.hot.model.hot_summary_file`) rides
in the suite's cache (``hot`` part) beside the verify summary of the
same file; the kernel-reachability closure comes from the one
:class:`~repro.analysis.verify.model.Program` the ``verify`` and
``det`` packs also check.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.analysis.hot.model import HotProgram, hot_summary_file
from repro.analysis.lint.cache import AnalysisCache
from repro.analysis.lint.core import iter_python_files
from repro.analysis.verify.model import Program

__all__ = ["build_hot_program"]


def build_hot_program(paths: Iterable[Path], program: Program,
                      cache: AnalysisCache) -> HotProgram:
    """Extract hot facts for every ``*.py`` under ``paths`` and join
    them onto ``program`` (assembled over the same ``paths``)."""
    return HotProgram(program, [
        cache.lookup(path, "hot", hot_summary_file)
        for path in iter_python_files(paths)])
