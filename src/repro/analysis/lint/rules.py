"""The per-file ``lint`` pack.

Each rule guards one way a contribution can silently corrupt the
reproduction (see ``docs/static_analysis.md`` for the full rationale
and fix guidance per rule):

* determinism — wall-clock reads make runs unrepeatable
  (``no-wallclock``);
* unit arithmetic — raw literals bypass the single SI unit system
  (``raw-unit-literal``).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional, Tuple

from repro.analysis.lint.core import (
    FileContext,
    Rule,
    Violation,
    dotted_name,
    register,
)

__all__ = [
    "NoWallclock",
    "RawUnitLiteral",
]


@register("lint")
class NoWallclock(Rule):
    """Forbid wall-clock reads and sleeps inside the simulation tree.

    Simulated code must take time from ``Simulator.now``; wall-clock
    reads make runs irreproducible and ``time.sleep`` stalls the event
    loop without advancing virtual time.  Benchmarking code that
    genuinely measures real elapsed time suppresses this rule with a
    justification (see ``repro/analysis/bench.py``'s ``Stopwatch``).
    """

    id = "no-wallclock"
    description = ("wall-clock time (time.time/sleep/monotonic/"
                   "perf_counter, datetime.now) is forbidden in "
                   "simulation code; use Simulator.now")

    #: Dotted-name suffixes of wall-clock calls. Matching by suffix
    #: catches both ``time.time()`` and ``datetime.datetime.now()``.
    _FORBIDDEN: Tuple[str, ...] = (
        "time.time",
        "time.sleep",
        "time.monotonic",
        "time.perf_counter",
        "time.process_time",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    )
    _MODULES = ("time", "datetime")

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in context.walk():
            if isinstance(node, ast.ImportFrom) and node.module in self._MODULES:
                yield self.violation(
                    context, node,
                    f"'from {node.module} import ...' hides wall-clock "
                    f"access; import the module and keep uses visible "
                    f"(or use Simulator.now)")
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name and any(name == f or name.endswith("." + f)
                                for f in self._FORBIDDEN):
                    yield self.violation(
                        context, node,
                        f"wall-clock call {name}() in simulation code; "
                        f"take time from Simulator.now")


#: Identifier stems that mark an expression as a simulated timestamp
#: (the verify model seeds time dimensions from them).
_TIME_STEMS = ("deadline", "eligib", "finish", "arriv", "depart")

#: Keyword-argument names whose values carry units in this codebase.
_TIME_KEYWORDS = re.compile(
    r"^(delay|spacing|mean|mean_on|mean_off|mean_interarrival|"
    r"mean_holding|a_on|a_off|warmup|propagation|duration|interval|"
    r"holding|until|period|horizon|gap|frame|frame_time|bin_width|"
    r"time|deadline)$")
_RATE_KEYWORDS = re.compile(r"^(rate|capacity|bandwidth)$")
_LENGTH_KEYWORDS = re.compile(r"^(length|l_max|l_min|bits|burst)$")

#: Callables whose *first positional argument* is a time in seconds.
_TIME_POSITIONAL_CALLEES = ("schedule", "schedule_at")


def _bare_number(node: ast.AST) -> Optional[float]:
    """The value of a bare numeric literal (incl. ``-x``), else None."""
    if (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))):
        inner = _bare_number(node.operand)
        return None if inner is None else -inner
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return float(node.value)
    return None


@register("lint")
class RawUnitLiteral(Rule):
    """Flag bare numeric literals passed to unit-bearing parameters.

    The library keeps all arithmetic in one SI system (seconds, bits,
    bit/s) and provides ``ms()``/``us()``/``seconds()``/``kbit()``/
    ``kbps()``/``Mbps()`` so configurations read like the paper.  A
    bare ``spacing=13.25`` is a thousand-fold bug waiting to happen;
    ``spacing=ms(13.25)`` cannot be misread.  Zero needs no unit and is
    allowed; named constants (``PAPER_SPACING_S``) are the other
    sanctioned spelling.
    """

    id = "raw-unit-literal"
    description = ("bare numeric literal passed to a time/rate/length "
                   "parameter; wrap it in a repro.units helper "
                   "(ms/us/seconds/kbit/kbps/...)")

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in context.walk():
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_keywords(context, node)
            yield from self._check_positionals(context, node)

    def _check_keywords(self, context: FileContext,
                        node: ast.Call) -> Iterator[Violation]:
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            value = _bare_number(keyword.value)
            if value is None or value == 0:
                continue
            if _TIME_KEYWORDS.match(keyword.arg):
                helper = "ms/us/seconds"
            elif _RATE_KEYWORDS.match(keyword.arg):
                helper = "kbps/Mbps"
            elif _LENGTH_KEYWORDS.match(keyword.arg):
                helper = "kbit/Mbit (or a named *_BITS constant)"
            else:
                continue
            yield self.violation(
                context, keyword.value,
                f"bare literal {keyword.arg}={value:g}; state the unit "
                f"with a repro.units helper ({helper})")

    def _check_positionals(self, context: FileContext,
                           node: ast.Call) -> Iterator[Violation]:
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else "")
        if callee not in _TIME_POSITIONAL_CALLEES or not node.args:
            return
        value = _bare_number(node.args[0])
        if value is not None and value != 0:
            yield self.violation(
                context, node.args[0],
                f"bare literal delay {value:g} passed to {callee}(); "
                f"state the unit with seconds()/ms()")
