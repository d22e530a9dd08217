"""The docs name only what exists.

Every backticked ``repro.…`` dotted name in ``docs/``, README.md and
DESIGN.md must import (a module) or resolve by attribute (a class,
function or method).  Every backticked ``src/…``,
``tests/…``, ``benchmarks/…`` or ``examples/…`` path must exist, and
every backticked ``make X`` must be a Makefile target.  Spans with a
placeholder (``{a,b}``, ``*``, ``<rev>``) are templates and skipped.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md",
                                               ROOT / "DESIGN.md"]
SPAN = re.compile(r"`([^`\n]+)`")
NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
PATH = re.compile(r"(?<![\w/.])(?:src|tests|benchmarks|examples)/[\w./-]*")
MAKE = re.compile(r"\bmake ([\w-]+)")


def resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                found = getattr(found, attr)
        except AttributeError:
            break
        return True
    return False


def test_every_name_path_and_make_target_in_the_docs_exists():
    makefile = (ROOT / "Makefile").read_text(encoding="utf-8")
    targets = set(re.findall(r"^([\w-]+):", makefile, re.M))
    missing = []
    for doc in DOCS:
        text = doc.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for span in SPAN.findall(line):
                if any(mark in span for mark in "{*<"):
                    continue
                where = f"{doc.relative_to(ROOT)}:{lineno}"
                missing += [(where, name) for name in NAME.findall(span)
                            if not resolves(name)]
                missing += [(where, path) for path in PATH.findall(span)
                            if not (ROOT / path.rstrip("/.")).exists()]
                missing += [(where, f"make {target}")
                            for target in MAKE.findall(span)
                            if target not in targets]
    assert missing == []
