"""Saturation sweep: what the admission tests are protecting against.

The paper: "assigning arbitrary values to d_{i,s} may lead to scheduler
saturation ... when a server is not able to provide an upper bound on
the interval of time between the transmission deadline of a packet and
its actual end of transmission."

This ablation sweeps the (uniform, constant) service parameter ``d``
downward across the eq.-19 feasibility threshold on a fully loaded
node and records the scheduler's worst observed lateness ``F̂ − F``:

* feasible region (``d ≥ Σ L_max/C``): lateness stays below one
  maximum-packet transmission time — the saturation invariant;
* infeasible region: lateness grows with offered backlog, unboundedly
  in the limit — deadlines have become fiction.

The sweep turns the admission rules from a definition into a visible
phase transition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.admission.procedure3 import subsets_feasible
from repro.analysis.report import format_table
from repro.experiments.common import add_onoff_session
from repro.experiments.parallel import Cell, run_cells
from repro.net.network import Network
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.policy import constant_policy
from repro.units import ms, to_ms

__all__ = ["SaturationRow", "SaturationResult", "cells", "run"]

CAPACITY = 1_536_000.0
PACKET = 424.0
SESSIONS = 48  # fully committed T1, as in MIX


@dataclass(frozen=True)
class SaturationRow:
    d_ms: float
    feasible: bool
    max_lateness_ms: float

    @property
    def saturated(self) -> bool:
        """Lateness beyond one max-packet time = saturation."""
        return self.max_lateness_ms > PACKET / CAPACITY * 1e3


@dataclass
class SaturationResult:
    duration: float
    seed: int
    rows: List[SaturationRow] = field(default_factory=list)

    def phase_transition_matches_feasibility(self) -> bool:
        """Feasible d never saturates; clearly infeasible d does."""
        threshold_ms = SESSIONS * PACKET / CAPACITY * 1e3  # 13.25 ms
        for row in self.rows:
            if row.feasible and row.saturated:
                return False
            if row.d_ms < threshold_ms / 4 and not row.saturated:
                return False
        return True

    def table(self) -> str:
        return format_table(
            ["d (ms)", "eq.19 feasible", "max lateness (ms)",
             "saturated"],
            [(r.d_ms, "yes" if r.feasible else "no",
              r.max_lateness_ms, "YES" if r.saturated else "no")
             for r in self.rows],
            title=f"Saturation sweep — 48x32 kbit/s on one T1 node "
                  f"({self.duration:.0f}s, seed {self.seed})")


def _cell(*, d: float, duration: float, seed: int) -> SaturationRow:
    """One sweep cell: a fully loaded node at one service parameter."""
    network = Network(seed=seed)
    network.add_node("n1", LeaveInTime(), capacity=CAPACITY)
    entries = []
    for index in range(SESSIONS):
        # Near-peak load so deadlines are contested.
        session = add_onoff_session(network, f"s{index}", ["n1"], ms(6.5))
        session.set_policy("n1", constant_policy(d, l_max=PACKET))
        entries.append((32_000.0, PACKET, d))
    network.run(duration)
    lateness = network.node("n1").scheduler.lateness
    # With identical sessions and a common constant d, eq. 19's binding
    # subset is the full set: feasibility is d >= N·L/C (= 13.25 ms
    # here). The exhaustive subset test agrees on any prefix.
    feasible = d >= SESSIONS * PACKET / CAPACITY - 1e-12
    assert subsets_feasible(entries[:10], CAPACITY) or not feasible
    return SaturationRow(
        d_ms=to_ms(d),
        feasible=feasible,
        max_lateness_ms=to_ms(lateness.maximum or 0.0),
    )


def cells(*, duration: float, seed: int,
          d_values_ms: Sequence[float]) -> List[Cell]:
    """The declarative sweep: one cell per service parameter."""
    return [Cell(label=f"saturation[d={d_ms:g}ms]", fn=_cell,
                 kwargs={"d": d_ms * 1e-3, "duration": duration,
                         "seed": seed})
            for d_ms in d_values_ms]


def run(*, duration: float = 20.0, seed: int = 0,
        d_values_ms: Sequence[float] = (26.5, 13.25, 6.0, 3.0, 1.0),
        workers: Optional[int] = 1) -> SaturationResult:
    result = SaturationResult(duration=duration, seed=seed)
    result.rows.extend(run_cells(
        cells(duration=duration, seed=seed, d_values_ms=d_values_ms),
        workers=workers))
    return result
