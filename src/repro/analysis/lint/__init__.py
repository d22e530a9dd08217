"""The analyzer engine and the per-file ``lint`` pack.

:mod:`.core` holds what every pack shares — the ``Violation`` type,
the one rule registry (``pack:rule-id``), ``# repro: disable=<rule>``
suppressions, the one rule driver and the once-read source file;
:mod:`.rules` is the ``lint`` pack itself (wall-clock reads, raw unit
literals).

Run the suite with ``repro-analyze`` (``python -m repro.analysis``,
:mod:`repro.analysis.front`); tier-1 tests gate ``src/`` on a clean
run.  See ``docs/static_analysis.md`` for the rule catalogue, the
suppression syntax, and how to add a rule.
"""

from repro.analysis.lint.core import (
    PACKS,
    FileContext,
    LintError,
    Rule,
    Violation,
    read_files,
    register,
    registered_rules,
    run_rules,
)
from repro.analysis.lint.reporters import render_text

__all__ = [
    "PACKS",
    "FileContext",
    "LintError",
    "Rule",
    "Violation",
    "read_files",
    "register",
    "registered_rules",
    "render_text",
    "run_rules",
]
