"""The ``hot`` pack: five hot-path performance rules.

Each rule consumes the :class:`~repro.analysis.verify.model.Program` —
hot-cost facts beside the kernel-reachability closure
(:meth:`Program.hot_functions`) — so findings are *provable*: every
flagged site sits in a
function that (may) run once per dispatched event, and every flagged
pattern has a mechanical, digest-neutral fix (hoist, pre-bind,
``__slots__``, ``.get``).

Rules reuse the lint layer's :class:`~repro.analysis.lint.core.
Violation` type and per-line ``# repro: disable=`` suppressions, so
one reporting/suppression vocabulary covers all four analyzers.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Set, Tuple

from repro.analysis.hot.model import EXPECTED_EXCEPTIONS
from repro.analysis.lint.core import Violation, register
from repro.analysis.verify.model import Program

__all__ = [
    "HotRule",
    "AllocationInHotPath",
    "UnslottedHotClass",
    "AttributeChainInHotLoop",
    "ItemCallInHotLoop",
    "ExceptionControlFlowInHotPath",
]


class HotRule:
    """One hot-path invariant.  Subclasses set ``id``/``description``."""

    #: Stable identifier used in reports and suppression comments.
    id: str = ""
    #: One-line summary shown by ``--list-rules`` and the docs.
    description: str = ""

    def check(self, hot: Program) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, path: str, lineno: int, col: int,
                  message: str) -> Violation:
        return Violation(path=path, line=lineno, col=col,
                         rule=self.id, message=message)


def _hot(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Records that contribute to the per-event common case."""
    return [record for record in records if not record["cold"]]


@register("hot")
class AllocationInHotPath(HotRule):
    """Fresh objects built once per dispatched event.

    At the 10⁵–10⁶ events/s the ROADMAP targets, every display
    literal, comprehension, f-string, or closure on a kernel-reachable
    path is an allocator round-trip per event.  Two shapes are
    provable wins: a *loop-invariant* allocation inside a loop (hoist
    it — loop-dependent ones are unavoidable and never flagged), and
    the *same* non-empty display built twice in one function (build
    once, bind a local).
    """

    id = "allocation-in-hot-path"
    description = ("loop-invariant or duplicated per-event allocation "
                   "in a kernel-reachable function")

    _DISPLAYS = ("tuple", "list", "set", "dict")

    def check(self, hot: Program) -> Iterator[Violation]:
        for _key, summary, function in hot.hot_functions():
            path = summary["path"]
            qualname = function["qualname"]
            dupes: Dict[str, List[Dict[str, Any]]] = {}
            for alloc in _hot(function["allocs"]):
                kind = alloc["kind"]
                if alloc["loop"] and alloc["invariant"]:
                    yield self.violation(
                        path, alloc["lineno"], alloc["col"],
                        f"loop-invariant {kind} {alloc['desc']!r} "
                        f"allocated every iteration in {qualname} "
                        f"(kernel-reachable); hoist it out of the "
                        f"loop")
                elif not alloc["loop"] and kind in self._DISPLAYS \
                        and alloc["size"] > 0:
                    dupes.setdefault(alloc["desc"], []).append(alloc)
            for desc, allocs in sorted(dupes.items()):
                if len(allocs) < 2:
                    continue
                first = allocs[0]
                yield self.violation(
                    path, first["lineno"], first["col"],
                    f"{first['kind']} {desc!r} built at {len(allocs)} "
                    f"sites in {qualname} "
                    f"(kernel-reachable); build it once and bind it "
                    f"to a local")


@register("hot")
class UnslottedHotClass(HotRule):
    """Per-event instances that carry a ``__dict__``.

    A class instantiated from a kernel-reachable function without
    ``__slots__`` pays a dict allocation per instance and defeats the
    session table's memory ceiling.  Only flagged when adding
    ``__slots__`` provably helps: every base resolves in-tree and is
    itself slotted (or ``object``), and the class is not an exception
    type (exceptions are cold by the raise-exclusion rule anyway).
    """

    id = "unslotted-hot-class"
    description = ("class instantiated on a kernel-reachable path "
                   "without __slots__")

    def check(self, hot: Program) -> Iterator[Violation]:
        reported: Set[Tuple[str, str]] = set()
        for _key, summary, function in hot.hot_functions():
            for site in _hot(function["instantiations"]):
                entry = hot.resolve_class(site["name"])
                if entry is None or entry["exception_like"]:
                    continue
                if not hot.provably_unslotted(entry):
                    continue
                marker = (entry["path"], entry["qualname"])
                if marker in reported:
                    continue
                reported.add(marker)
                yield self.violation(
                    entry["path"], entry["lineno"], entry["col"],
                    f"class {entry['name']} is instantiated on the "
                    f"hot path ({function['qualname']} at "
                    f"{summary['path']}:{site['lineno']}) but defines "
                    f"no __slots__; add __slots__ to keep per-event "
                    f"instances dict-free")


@register("hot")
class AttributeChainInHotLoop(HotRule):
    """Repeated ``a.b.c`` loads with no local binding.

    Every dotted load is a dict probe; a chain re-read per iteration
    (or several times per event) multiplies that cost.  Flagged when
    depth-≥2 chains with the same first dereference are loaded two or
    more times in one kernel-reachable function — unless the function
    already binds that prefix to a local.
    """

    id = "attribute-chain-in-hot-loop"
    description = ("repeated deep attribute loads in kernel-reachable "
                   "code with no local binding")

    def check(self, hot: Program) -> Iterator[Violation]:
        for _key, summary, function in hot.hot_functions():
            bound = set(function["bindings"])
            groups: Dict[str, List[Dict[str, Any]]] = {}
            for chain in _hot(function["chains"]):
                if chain["prefix"] in bound:
                    continue
                groups.setdefault(chain["prefix"], []).append(chain)
            for prefix, chains in sorted(groups.items()):
                if len(chains) < 2:
                    continue
                looped = [c for c in chains if c["loop"]]
                first = (looped or chains)[0]
                where = "every loop iteration" if looped \
                    else "per event"
                yield self.violation(
                    summary["path"], first["lineno"], first["col"],
                    f"attribute chain {first['chain']!r} re-read "
                    f"{where} ({len(chains)} load"
                    f"{'s' if len(chains) != 1 else ''} in "
                    f"{function['qualname']}, kernel-reachable); bind "
                    f"{prefix!r} to a local first")


@register("hot")
class ItemCallInHotLoop(HotRule):
    """``.item()`` / ``.get()`` probes that should be hoisted.

    PR 8's SoA ground rules: scalar reads out of arrays (``.item()``)
    and dict probes (``.get()``) cost a method call plus boxing each —
    a loop-invariant probe inside a loop, or the same probe expression
    evaluated twice in one per-event function, should be read once
    into a local.
    """

    id = "item-call-in-hot-loop"
    description = ("loop-invariant or repeated .item()/.get() probe "
                   "in kernel-reachable code")

    def check(self, hot: Program) -> Iterator[Violation]:
        for _key, summary, function in hot.hot_functions():
            qualname = function["qualname"]
            flagged: Set[str] = set()
            dupes: Dict[str, List[Dict[str, Any]]] = {}
            for probe in _hot(function["probes"]):
                if probe["loop"] and probe["invariant"]:
                    flagged.add(probe["desc"])
                    yield self.violation(
                        summary["path"], probe["lineno"], probe["col"],
                        f"loop-invariant probe {probe['desc']!r} "
                        f"re-evaluated every iteration in {qualname} "
                        f"(kernel-reachable); read it once into a "
                        f"local before the loop")
                else:
                    dupes.setdefault(probe["desc"], []).append(probe)
            for desc, probes in sorted(dupes.items()):
                if len(probes) < 2 or desc in flagged:
                    continue
                first = probes[0]
                yield self.violation(
                    summary["path"], first["lineno"], first["col"],
                    f"probe {desc!r} evaluated {len(probes)} times "
                    f"per event in {qualname} (kernel-reachable); "
                    f"read it once into a local")


@register("hot")
class ExceptionControlFlowInHotPath(HotRule):
    """``try/except`` used for expected-case branching.

    Raising and unwinding an exception costs microseconds — fine for
    genuinely exceptional paths, ruinous when a KeyError/IndexError is
    the *expected* miss case of a per-event lookup.  Flagged when a
    kernel-reachable ``try`` catches only expected-case types
    (KeyError, IndexError, AttributeError, StopIteration) and no
    handler re-raises: use ``.get()``/membership/``getattr`` instead.
    """

    id = "exception-control-flow-in-hot-path"
    description = ("try/except over expected-case exceptions in "
                   "kernel-reachable code")

    def check(self, hot: Program) -> Iterator[Violation]:
        for _key, summary, function in hot.hot_functions():
            for record in _hot(function["tries"]):
                types = [name.rsplit(".", 1)[-1]
                         for name in record["types"]]
                if not types or record["reraises"]:
                    continue
                if not all(name in EXPECTED_EXCEPTIONS
                           for name in types):
                    continue
                yield self.violation(
                    summary["path"], record["lineno"], record["col"],
                    f"try/except {'/'.join(sorted(set(types)))} used "
                    f"for expected-case branching in "
                    f"{function['qualname']} (kernel-reachable); "
                    f"exception unwinding costs ~µs per event — use "
                    f".get()/membership/getattr with a default")
