"""The ``det`` pack: the static determinism / parallel-safety rule.

Sharding one topology across worker processes is only sound when
cross-shard result merging is order-insensitive.  The rule consumes
the same assembled :class:`~repro.analysis.verify.model.Program` as
the ``verify`` pack and reports only *provable* hazards: unannotated
containers stay silent, so a finding is always actionable.  Shared
state and order-derived RNG stream names — the other two ways a
sharded run diverges — are caught dynamically, by the
schedule-perturbation differ (:mod:`repro.analysis.det.perturb`).
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.lint.core import Violation, register
from repro.analysis.verify.model import Program
from repro.analysis.verify.rules import ProgramRule, _iter_functions

__all__ = ["UnorderedMerge"]


def _last(name: str) -> str:
    return name.rsplit(".", 1)[-1]


@register("det")
class UnorderedMerge(ProgramRule):
    """Set/dict iteration on the sweep-aggregation paths.

    Extends ``nondeterministic-iteration`` interprocedurally to the
    result-merge layer: a ``cells()`` builder or a ``run_cells``
    caller (and everything it reaches within its own modules) that
    iterates an unordered container bakes hash order into the merged
    rows even though nothing in the loop body touches the event queue.
    Cross-shard merges must be provably order-insensitive — iterate
    ``sorted(...)`` or an explicitly ordered list.  Scope is limited
    to the modules that own the roots, so a set loop deep in the
    simulation layers is reported by the scheduling-aware verify rule,
    not double-reported here.
    """

    id = "unordered-merge"
    description = ("set/dict iteration on a cells()/run_cells "
                   "aggregation path; merge order must be key-sorted")

    def check(self, program: Program) -> Iterator[Violation]:
        roots = {key for key, (_s, function) in program.functions.items()
                 if function["name"] == "cells"
                 or any(_last(call["name"]) == "run_cells"
                        for call in function["calls"])}
        if not roots:
            return
        modules = {program.functions[key][0]["module"] for key in roots}
        scope = {key for key in program.forward_closure(roots)
                 if program.functions[key][0]["module"] in modules}
        for key, summary, function in _iter_functions(program):
            if key not in scope:
                continue
            for loop in function["loops"]:
                kind = loop["kind"] or program.attr_kind(loop.get("attr"))
                if kind not in ("set", "dict"):
                    continue
                shape = "comprehension over" if loop.get("comp") \
                    else "loop over"
                yield self.violation(
                    summary, loop["lineno"], loop["col"],
                    f"{shape} a {kind} ({loop['desc']!r}) in "
                    f"{function['qualname']} on a sweep-aggregation "
                    f"path; merge order must not depend on hash order "
                    f"— iterate sorted(...) or keep an ordered list")
