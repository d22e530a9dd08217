"""Hop scaling: the (N−1)·L_max/r_s delay growth and delay shifting.

The paper's Section-1 motivation for delay shifting: "in general, an
upper bound on delay will grow linearly with the connection length ...
the value (N−1)·L_max,s/r_s is part of the upper bound on delay".

This experiment measures and bounds a session's end-to-end delay on
tandems of increasing length under two service assignments:

* **VirtualClock mode** (``d = L/r``): the bound grows by
  ``L_max/r + L_MAX/C + Γ`` per extra hop — for a 32 kbit/s session
  that is 13.25 ms of regulator slack per hop;
* **shifted** (procedure-3-style constant ``d`` per hop): the same
  session admitted with a small constant ``d`` grows by only
  ``d + L_MAX/C + Γ`` per hop.

The crossover the figure shows: per-hop cost drops from ~14.5 ms to
~2.3 ms once admission control shifts the delay onto other sessions
(which are charged in the eq.-19 budget).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.report import format_table
from repro.experiments.common import add_onoff_session, read_target
from repro.experiments.parallel import Cell, run_cells
from repro.net.network import Network
from repro.net.session import Session
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.policy import constant_policy
from repro.traffic.onoff import OnOffSource
from repro.units import PAPER_PROPAGATION_S, T1_RATE_BPS, kbps, ms, to_ms

__all__ = ["HopScalingRow", "HopScalingResult", "cells", "run"]

PACKET = 424.0


@dataclass(frozen=True)
class HopScalingRow:
    hops: int
    mode: str
    max_delay_ms: float
    bound_ms: float


@dataclass
class HopScalingResult:
    duration: float
    seed: int
    shifted_d: float
    rows: List[HopScalingRow] = field(default_factory=list)

    def rows_for(self, mode: str) -> List[HopScalingRow]:
        return [r for r in self.rows if r.mode == mode]

    def per_hop_growth(self, mode: str) -> float:
        """Average bound increase per added hop, in ms."""
        rows = sorted(self.rows_for(mode), key=lambda r: r.hops)
        if len(rows) < 2:
            return 0.0
        return ((rows[-1].bound_ms - rows[0].bound_ms)
                / (rows[-1].hops - rows[0].hops))

    def bounds_hold(self) -> bool:
        return all(r.max_delay_ms <= r.bound_ms for r in self.rows)

    def table(self) -> str:
        return format_table(
            ["hops", "mode", "max(ms)", "bound(ms)"],
            [(r.hops, r.mode, r.max_delay_ms, r.bound_ms)
             for r in sorted(self.rows, key=lambda r: (r.mode, r.hops))],
            title=f"Hop scaling — bound growth per hop, VirtualClock "
                  f"mode vs shifted d={to_ms(self.shifted_d):.2f} ms "
                  f"({self.duration:.0f}s)")


def _cell(*, hops: int, shifted_d: Optional[float], duration: float,
          seed: int) -> HopScalingRow:
    """One sweep cell: a tandem of ``hops`` nodes in one mode."""
    network = Network(seed=seed)
    route = []
    for index in range(1, hops + 1):
        name = f"n{index}"
        network.add_node(name, LeaveInTime(), capacity=T1_RATE_BPS,
                         propagation=PAPER_PROPAGATION_S)
        route.append(name)

    target = add_onoff_session(network, "target", route, ms(88))
    mode = "virtual-clock"
    if shifted_d is not None:
        mode = "shifted"
        for name in route:
            target.set_policy(name, constant_policy(shifted_d,
                                                    l_max=PACKET))

    # Background load on every hop: three 256 kbit/s ON-OFF sessions.
    for index, name in enumerate(route):
        for k in range(3):
            bg = Session(f"bg-{name}-{k}", rate=kbps(256), route=[name],
                         l_max=PACKET)
            network.add_session(bg, keep_samples=False)
            OnOffSource(network, bg, length=PACKET, spacing=ms(1.65625),
                        mean_on=ms(352), mean_off=ms(88))

    network.run(duration)
    reading = read_target(network, "target")
    return HopScalingRow(hops=hops, mode=mode, max_delay_ms=reading.max_ms,
                         bound_ms=reading.bound_ms)


def cells(*, duration: float, seed: int, hop_counts: Sequence[int],
          shifted_d: float) -> List[Cell]:
    """The declarative sweep: both modes at every tandem length."""
    built: List[Cell] = []
    for hops in hop_counts:
        for mode, d in (("virtual-clock", None), ("shifted", shifted_d)):
            built.append(Cell(
                label=f"hop_scaling[hops={hops},{mode}]", fn=_cell,
                kwargs={"hops": hops, "shifted_d": d,
                        "duration": duration, "seed": seed}))
    return built


def run(*, duration: float = 15.0, seed: int = 0,
        hop_counts: Sequence[int] = (1, 2, 4, 6, 8),
        shifted_d: float = ms(2.0),
        workers: Optional[int] = 1) -> HopScalingResult:
    """Measure both modes across tandem lengths.

    ``shifted_d`` must respect the eq.-19 feasibility at each node for
    the offered load; 2 ms is comfortably feasible for the background
    used here (Σ L_max/C ≈ 1.1 ms per node). ``workers`` shards the
    cells across processes; the merged result is bit-identical to the
    serial ``workers=1`` run.
    """
    result = HopScalingResult(duration=duration, seed=seed,
                              shifted_d=shifted_d)
    result.rows.extend(run_cells(
        cells(duration=duration, seed=seed, hop_counts=hop_counts,
              shifted_d=shifted_d),
        workers=workers))
    return result
