"""Figure 7: max delay and jitter of a five-hop ON-OFF session (MIX).

All 116 MIX sessions are ON-OFF with the same ``a_OFF``; admission is
procedure 1 with one class (``d = L/r``, the VirtualClock special
case). The monitored session is one a-j (five-hop) session without
jitter control. The figure sweeps ``a_OFF`` from 6.5 ms (utilization
≈ 98 %) to 650 ms (≈ 35 %) and shows measured max delay and jitter
staying well below the eq.-12/17 bounds (~72.6 ms delay, 66.25 ms
jitter) and nearly flat in utilization — the isolation property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.report import format_table
from repro.experiments.common import (
    PAPER_A_OFF_SWEEP_S,
    build_mix_network,
    read_target,
)
from repro.experiments.parallel import Cell, run_cells
from repro.units import to_ms

__all__ = ["Figure7Row", "Figure7Result", "cells", "run",
           "TARGET_SESSION"]

#: The monitored five-hop session.
TARGET_SESSION = "a-j/1"


@dataclass(frozen=True)
class Figure7Row:
    """One sweep point of Figure 7 (times in milliseconds)."""

    a_off_ms: float
    utilization: float
    packets: int
    max_delay_ms: float
    jitter_ms: float
    delay_bound_ms: float
    jitter_bound_ms: float


@dataclass
class Figure7Result:
    duration: float
    seed: int
    rows: List[Figure7Row] = field(default_factory=list)

    def table(self) -> str:
        return format_table(
            ["a_OFF(ms)", "util", "pkts", "max(ms)", "jitter(ms)",
             "bound(ms)", "jbound(ms)"],
            [(r.a_off_ms, r.utilization, r.packets, r.max_delay_ms,
              r.jitter_ms, r.delay_bound_ms, r.jitter_bound_ms)
             for r in self.rows],
            title=f"Figure 7 — MIX ON-OFF sweep "
                  f"({self.duration:.0f}s, seed {self.seed})")

    def bounds_hold(self) -> bool:
        return all(r.max_delay_ms <= r.delay_bound_ms
                   and r.jitter_ms <= r.jitter_bound_ms
                   for r in self.rows)


def _cell(*, a_off: float, duration: float, seed: int) -> Figure7Row:
    """One sweep cell: a fully isolated MIX simulation at one a_OFF."""
    network = build_mix_network(a_off, seed=seed)
    network.run(duration)
    reading = read_target(network, TARGET_SESSION)
    # Utilization at the first node, as a load indicator.
    utilization = network.node("n1").utilization()
    return Figure7Row(
        a_off_ms=to_ms(a_off),
        utilization=round(utilization, 3),
        packets=reading.packets,
        max_delay_ms=reading.max_ms,
        jitter_ms=reading.jitter_ms,
        delay_bound_ms=reading.bound_ms,
        jitter_bound_ms=reading.jitter_bound_ms,
    )


def cells(*, duration: float, seed: int,
          a_off_values: Sequence[float]) -> List[Cell]:
    """The declarative sweep: one cell per a_OFF value."""
    return [Cell(label=f"fig07[a_off={to_ms(a_off):g}ms]", fn=_cell,
                 kwargs={"a_off": a_off, "duration": duration,
                         "seed": seed})
            for a_off in a_off_values]


def run(*, duration: float = 20.0, seed: int = 0,
        a_off_values: Sequence[float] = PAPER_A_OFF_SWEEP_S,
        workers: Optional[int] = 1) -> Figure7Result:
    """Run the sweep; one full MIX simulation per a_OFF value.

    ``workers`` shards the sweep cells across processes; the merged
    result is bit-identical to the serial ``workers=1`` run.
    """
    rows = run_cells(cells(duration=duration, seed=seed,
                           a_off_values=a_off_values),
                     workers=workers)
    return Figure7Result(duration=duration, seed=seed, rows=rows)
