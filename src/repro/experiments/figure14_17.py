"""Figures 14-17: admission control procedure 2 with two delay classes.

MIX configuration of ON-OFF sessions (a_OFF swept as in Figure 7),
admitted by procedure 2 with

* class 1: R₁ = 640 kbit/s, σ₁ = 2.77 ms  → d = 2.77 ms (rule 2.3,
  R₀ = 0 makes it rate-independent),
* class 2: R₂ = 1536 kbit/s, σ₂ = 13.25 ms → d ≈ 18.8 ms.

Class 1 holds 10 sessions (5 five-hop a-j and 5 four-hop a-i, as in
the paper); everything else is class 2. Four five-hop sessions are
monitored: class 1 and class 2, each with and without jitter control:

* Figure 14 — class 1, without jitter control
* Figure 15 — class 1, with jitter control
* Figure 16 — class 2, without jitter control
* Figure 17 — class 2, with jitter control

The headline behaviour: class-1 sessions see markedly lower delay and
jitter than class-2 sessions — delay shifting at work.

Note σ₁ = 2.77 ms and σ₂ = 13.25 ms are exactly the rule-(2.2) budgets
for 10 and 48 sessions of 424-bit packets on a T1 link — the admission
tests pass with no slack, which this module asserts by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.admission.classes import DelayClass
from repro.admission.controller import AdmissionController
from repro.admission.procedure2 import Procedure2
from repro.analysis.report import format_table
from repro.experiments.common import (
    PAPER_A_OFF_SWEEP_S,
    build_mix_network,
    mix_specs,
    read_target,
)
from repro.experiments.parallel import Cell, run_cells
from repro.units import kbps, ms, to_ms

__all__ = ["TwoClassRow", "TwoClassResult", "cells", "run",
           "TARGETS", "CLASS1_IDS"]

#: The two-class menu of the paper's procedure-2 experiment.
CLASSES = (DelayClass(kbps(640), ms(2.77)),
           DelayClass(kbps(1536), ms(13.25)))

#: Class 1 membership: 5 five-hop and 5 four-hop sessions.
CLASS1_IDS: Set[str] = (
    {f"a-j/{i}" for i in range(1, 6)} | {f"a-i/{i}" for i in range(1, 6)})

#: figure number -> (monitored session, jitter control?).
TARGETS: Dict[str, tuple] = {
    "fig14-class1-nojc": ("a-j/1", False),
    "fig15-class1-jc": ("a-j/2", True),
    "fig16-class2-nojc": ("a-j/6", False),
    "fig17-class2-jc": ("a-j/7", True),
}


@dataclass(frozen=True)
class TwoClassRow:
    """One (a_OFF, monitored session) measurement, in milliseconds."""

    figure: str
    session_id: str
    class_number: int
    jitter_control: bool
    a_off_ms: float
    packets: int
    max_delay_ms: float
    jitter_ms: float
    delay_bound_ms: float
    jitter_bound_ms: float


@dataclass
class TwoClassResult:
    duration: float
    seed: int
    rows: List[TwoClassRow] = field(default_factory=list)

    def rows_for(self, figure: str) -> List[TwoClassRow]:
        return [r for r in self.rows if r.figure == figure]

    def bounds_hold(self) -> bool:
        return all(r.max_delay_ms <= r.delay_bound_ms
                   and r.jitter_ms <= r.jitter_bound_ms
                   for r in self.rows)

    def class_hierarchy_holds(self) -> bool:
        """Class-1 delay bounds sit below class-2's at every sweep point."""
        by_aoff: Dict[float, Dict[int, float]] = {}
        for row in self.rows:
            by_aoff.setdefault(row.a_off_ms, {})[row.class_number] = min(
                by_aoff.get(row.a_off_ms, {}).get(row.class_number,
                                                  float("inf")),
                row.delay_bound_ms)
        return all(classes[1] < classes[2]
                   for classes in by_aoff.values()
                   if 1 in classes and 2 in classes)

    def table(self) -> str:
        return format_table(
            ["figure", "session", "cls", "jc", "a_OFF(ms)", "pkts",
             "max(ms)", "jitter(ms)", "dbound(ms)", "jbound(ms)"],
            [(r.figure, r.session_id, r.class_number,
              "y" if r.jitter_control else "n", r.a_off_ms, r.packets,
              r.max_delay_ms, r.jitter_ms, r.delay_bound_ms,
              r.jitter_bound_ms) for r in self.rows],
            title=f"Figures 14-17 — ACP2, two classes "
                  f"({self.duration:.0f}s, seed {self.seed})")


def class_of(session_id: str) -> int:
    return 1 if session_id in CLASS1_IDS else 2


def _cell(*, a_off: float, duration: float,
          seed: int) -> List[TwoClassRow]:
    """One sweep cell: the ACP2 MIX run at one a_OFF, all four targets."""
    jitter_ids = {sid for sid, jc in TARGETS.values() if jc}
    network = build_mix_network(a_off, seed=seed, jitter_ids=jitter_ids)
    controller = AdmissionController(
        network, lambda node: Procedure2(node.link.capacity, CLASSES))
    for spec in mix_specs():  # registration order
        controller.admit(network.sessions[spec.session_id],
                         class_number=class_of(spec.session_id))
    network.run(duration)
    rows = []
    # Sorted (== insertion) order: the merged row order must not lean
    # on dict iteration, per the unordered-merge rule.
    for figure, (session_id, jitter_control) in sorted(TARGETS.items()):
        reading = read_target(network, session_id)
        rows.append(TwoClassRow(
            figure=figure,
            session_id=session_id,
            class_number=class_of(session_id),
            jitter_control=jitter_control,
            a_off_ms=to_ms(a_off),
            packets=reading.packets,
            max_delay_ms=reading.max_ms,
            jitter_ms=reading.jitter_ms,
            delay_bound_ms=reading.bound_ms,
            jitter_bound_ms=reading.jitter_bound_ms,
        ))
    return rows


def cells(*, duration: float, seed: int,
          a_off_values: Sequence[float]) -> List[Cell]:
    """The declarative sweep: one cell per a_OFF value."""
    return [Cell(label=f"fig14_17[a_off={to_ms(a_off):g}ms]", fn=_cell,
                 kwargs={"a_off": a_off, "duration": duration,
                         "seed": seed})
            for a_off in a_off_values]


def run(*, duration: float = 20.0, seed: int = 0,
        a_off_values: Sequence[float] = PAPER_A_OFF_SWEEP_S,
        workers: Optional[int] = 1) -> TwoClassResult:
    result = TwoClassResult(duration=duration, seed=seed)
    for rows in run_cells(cells(duration=duration, seed=seed,
                                a_off_values=a_off_values),
                          workers=workers):
        result.rows.extend(rows)
    return result
