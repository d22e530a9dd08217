"""Render findings for humans: GCC-style text."""

from __future__ import annotations

from collections import Counter
from typing import List, Sequence

from repro.analysis.lint.core import Violation

__all__ = ["render_text"]


def render_text(violations: Sequence[Violation], *,
                files_checked: int = 0) -> str:
    """GCC-style ``path:line:col: rule: message`` lines plus a summary."""
    lines: List[str] = [v.render() for v in violations]
    if violations:
        by_rule = Counter(v.rule for v in violations)
        breakdown = ", ".join(
            f"{rule} x{count}" for rule, count in sorted(by_rule.items()))
        lines.append("")
        lines.append(
            f"{len(violations)} violation"
            f"{'s' if len(violations) != 1 else ''} ({breakdown})")
    else:
        suffix = f" in {files_checked} files" if files_checked else ""
        lines.append(f"clean{suffix}")
    return "\n".join(lines)
