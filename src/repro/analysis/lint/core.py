"""The analyzer engine: violations, the one rule registry, suppressions,
the one rule driver, and the once-read source file every pack shares.

Why a bespoke linter?  The reproduction's guarantees (paper eqs. 10-17)
only hold if the *simulator itself* is deterministic and
unit-consistent.  Generic linters cannot know that simulation code must
take time from the kernel clock, or that all arithmetic stays in the SI
unit system of :mod:`repro.units`.  The three ``rules`` modules
(``lint``, ``verify``, ``det``) encode those repo-specific invariants;
this module supplies the machinery they all run on.

Suppression syntax
------------------
A finding on line *N* is silenced by a comment **on that same line**::

    t = time.time()  # repro: disable=no-wallclock -- measuring real throughput

Several rules may be listed, comma-separated::

    # repro: disable=no-wallclock,raw-unit-literal

A suppression silences only the named rule(s) on its own line; there is
deliberately no file- or block-level form, so every exemption carries
its justification next to the code it excuses.
"""

from __future__ import annotations

import ast
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Tuple,
)

__all__ = [
    "PACKS",
    "Violation",
    "Rule",
    "FileContext",
    "LintError",
    "register",
    "registered_rules",
    "run_rules",
    "read_files",
    "iter_python_files",
    "dotted_name",
]

#: The rule packs, in execution order: the per-file pass first, then
#: the whole-program packs over one shared Program.
PACKS: Tuple[str, ...] = ("lint", "verify", "det")


class LintError(Exception):
    """A file could not be analyzed (unreadable or not valid Python)."""


@dataclass(frozen=True, order=True)
class Violation:
    """One finding: where, which rule, and what to do about it."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class FileContext:
    """One source file, parsed once: what a per-file rule inspects and
    what the whole-program model extracts its summary from."""

    def __init__(self, path: Path, source: str) -> None:
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"{path}: not valid Python: {exc}") from exc
        self.path = path
        self.source = source
        #: Line number -> rule ids a comment disables on that line.
        self.suppressions = suppressions(source)

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)

    def suppressed(self, violation: Violation) -> bool:
        return violation.rule in self.suppressions.get(violation.line, ())


class Rule(ABC):
    """One invariant check.  Subclasses set ``id`` and ``description``."""

    #: Stable identifier used in reports and suppression comments.
    id: str = ""
    #: One-line summary shown by ``--list-rules`` and the docs.
    description: str = ""

    @abstractmethod
    def check(self, context: FileContext) -> Iterator[Violation]:
        """Yield every violation of this rule in ``context``."""

    def violation(self, context: FileContext, node: ast.AST,
                  message: str) -> Violation:
        return Violation(path=str(context.path),
                         line=getattr(node, "lineno", 0),
                         col=getattr(node, "col_offset", 0),
                         rule=self.id, message=message)


_REGISTRY: Dict[str, type] = {}


def register(pack: str) -> Callable[[type], type]:
    """Class decorator adding a rule to the registry as ``pack:rule-id``."""
    if pack not in PACKS:
        raise ValueError(f"unknown rule pack {pack!r}")

    def decorate(rule_class: type) -> type:
        if not rule_class.id:
            raise ValueError(f"rule {rule_class.__name__} has no id")
        key = f"{pack}:{rule_class.id}"
        if key in _REGISTRY:
            raise ValueError(f"duplicate rule {key!r}")
        _REGISTRY[key] = rule_class
        return rule_class

    return decorate


def registered_rules() -> Dict[str, type]:
    """``{"pack:rule-id": rule class}`` in pack, then rule-id, order —
    what ``--select`` takes and ``--list-rules`` prints."""
    # Imported lazily: every rules module imports this one for
    # ``register`` and its base types.
    from repro.analysis.det import rules as _det  # noqa: F401
    from repro.analysis.lint import rules as _lint  # noqa: F401
    from repro.analysis.verify import rules as _verify  # noqa: F401
    return {key: _REGISTRY[key] for key in sorted(
        _REGISTRY,
        key=lambda key: (PACKS.index(key.partition(":")[0]), key))}


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
#: ``# repro: disable=rule-a,rule-b`` followed by optional free text.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*disable=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)")


def suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> rule ids disabled on that line."""
    disabled: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is not None:
            names = frozenset(
                name.strip() for name in match.group(1).split(","))
            disabled[lineno] = names
    return disabled


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, ``""`` otherwise."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def run_rules(rules: Iterable[Any], subject: Any) -> List[Violation]:
    """Every rule's findings on ``subject`` that no comment suppresses.

    The one driver behind all three packs: ``subject`` is whatever the
    pack's rules check — a :class:`FileContext` or a ``Program`` — and
    answers ``suppressed(violation)``.
    """
    return sorted(violation for rule in rules
                  for violation in rule.check(subject)
                  if not subject.suppressed(violation))


def read_files(paths: Iterable[Path]) -> List[FileContext]:
    """Read and parse every ``*.py`` under ``paths``, each exactly once.

    Raises :class:`LintError` on an unreadable, non-UTF-8 or
    unparsable file.
    """
    files: List[FileContext] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"{path}: unreadable: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise LintError(f"{path}: not UTF-8: {exc}") from exc
        files.append(FileContext(path, source))
    return files


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted, deduplicated file list."""
    seen = set()
    collected: List[Path] = []
    for path in paths:
        if path.is_dir():
            collected.extend(sorted(path.rglob("*.py")))
        else:
            collected.append(path)
    for path in collected:
        if path not in seen:
            seen.add(path)
            yield path
