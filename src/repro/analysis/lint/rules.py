"""The per-file ``lint`` pack.

Each rule guards one way a contribution can silently corrupt the
reproduction (see ``docs/static_analysis.md`` for the full rationale
and fix guidance per rule):

* determinism — wall-clock reads make runs unrepeatable
  (``no-wallclock``);
* unit arithmetic — raw literals bypass the single SI unit system
  (``raw-unit-literal``);
* hot-path cost — ``Tracer.emit`` builds its kwargs dict even when
  tracing is off, so per-packet emit sites must test
  ``tracer.enabled`` first (``unguarded-trace-emit``).
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
    "UnguardedTraceEmit",
]


@register("lint")
class NoWallclock(Rule):
    """Forbid wall-clock reads and sleeps inside the simulation tree.

    Simulated code must take time from ``Simulator.now``; wall-clock
    reads make runs irreproducible and ``time.sleep`` stalls the event
    loop without advancing virtual time.  Benchmarking code that
    genuinely measures real elapsed time suppresses this rule with a
    justification (see ``repro/experiments/ablation.py``).
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


@register("lint")
class UnguardedTraceEmit(Rule):
    """Per-packet trace emits must hide behind ``tracer.enabled``.

    ``Tracer.emit`` builds a kwargs dict on every call — even when
    tracing is off, the disabled path still pays the allocation per
    packet.  The kernel's zero-cost-when-disabled guarantee therefore
    requires every hot-path emit site to test the flag first::

        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(now, "arrival", node=self.name, ...)

    An emit counts as guarded when an enclosing ``if``/ternary test (or
    a preceding operand of the same ``and``) references an ``enabled``
    attribute or name.  The tracer's own module is exempt — it
    implements ``emit``.
    """

    id = "unguarded-trace-emit"
    description = ("tracer.emit() without an enclosing "
                   "`if tracer.enabled:` guard; emit builds its kwargs "
                   "dict even when tracing is off")

    def _exempt(self, context: FileContext) -> bool:
        return context.is_file("sim", "trace.py")

    @staticmethod
    def _tests_enabled(test: ast.AST) -> bool:
        """Does this expression read an ``enabled`` flag?"""
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                return True
            if isinstance(sub, ast.Name) and sub.id == "enabled":
                return True
        return False

    @staticmethod
    def _is_trace_emit(node: ast.Call) -> bool:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "emit"):
            return False
        receiver = dotted_name(func.value)
        return receiver == "tracer" or receiver.endswith(".tracer")

    def check(self, context: FileContext) -> Iterator[Violation]:
        if self._exempt(context):
            return
        found = []

        def visit(node: ast.AST, guarded: bool) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                # A nested function's body runs later, outside any
                # guard active at definition time.
                for child in ast.iter_child_nodes(node):
                    visit(child, False)
                return
            if isinstance(node, ast.If):
                guards = self._tests_enabled(node.test)
                visit(node.test, guarded)
                for child in node.body:
                    visit(child, guarded or guards)
                for child in node.orelse:
                    visit(child, guarded)
                return
            if isinstance(node, ast.IfExp):
                guards = self._tests_enabled(node.test)
                visit(node.test, guarded)
                visit(node.body, guarded or guards)
                visit(node.orelse, guarded)
                return
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
                seen = False
                for value in node.values:
                    visit(value, guarded or seen)
                    seen = seen or self._tests_enabled(value)
                return
            if (not guarded and isinstance(node, ast.Call)
                    and self._is_trace_emit(node)):
                found.append(self.violation(
                    context, node,
                    "tracer.emit() outside an `if tracer.enabled:` "
                    "guard; hoist the tracer into a local and test "
                    ".enabled so disabled tracing costs nothing"))
            for child in ast.iter_child_nodes(node):
                visit(child, guarded)

        visit(context.tree, False)
        yield from found
