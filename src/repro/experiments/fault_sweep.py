"""Isolation under failure: LiT vs FCFS while a cross-traffic link flaps.

The paper's firewall experiments keep every link perfectly reliable;
this sweep asks what happens to the five-hop ON-OFF target when the
*cross traffic's* infrastructure fails and recovers.  All five Poisson
cross sessions are funnelled through a fast feeder node ``x0`` before
fanning out to their one-hop routes on the tandem.  A
:class:`~repro.faults.plan.FaultPlan` takes ``x0``'s link down for a
sweep of outage durations; while it is down the cross packets pile up
in ``x0``'s queue, and at recovery (``requeue`` policy) the backlog
blasts into the shared tandem nodes at the feeder's full speed — a
thundering herd the target never caused.  A short seeded loss window
after recovery exercises the per-node fault RNG streams as well.

Under Leave-in-Time the target's deadlines depend only on its own
reserved rate (eqs. 10-12), so its max delay stays below the eq.-12
bound for every outage length.  Under FCFS the recovery burst marches
straight through the shared queues and the target's delay grows with
the outage.  Each (discipline × outage) pair is one isolated
:class:`~repro.experiments.parallel.Cell`, so the sweep shards across
``workers`` processes bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.analysis.faults import session_fault_stats
from repro.analysis.report import format_table
from repro.experiments.common import (
    FIVE_HOP,
    TARGET,
    add_cross_traffic,
    add_onoff_session,
    read_target,
)
from repro.experiments.parallel import Cell, run_cells
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkDown, PacketLoss
from repro.net.network import Network
from repro.net.topology import CROSS_ONE_HOP_ROUTES, build_paper_network
from repro.sched.fcfs import FCFS
from repro.sched.leave_in_time import LeaveInTime
from repro.units import ms

__all__ = ["FaultSweepRow", "FaultSweepResult", "cells", "run",
           "TARGET", "FEEDER"]

#: The cross-traffic feeder node all Poisson sessions pass through.
FEEDER = "x0"

#: Feeder link rate: fast enough to carry all five cross sessions
#: (5 × 1472 kbit/s) and to release an outage backlog as a burst.
FEEDER_RATE_BPS = 16_000_000.0

#: Outage durations swept (seconds); 0 is the fault-free baseline.
DEFAULT_OUTAGES_S = (0.0, 0.5, 2.0)

#: Seeded per-packet loss on the feeder for one second after recovery.
RECOVERY_LOSS_RATE = 0.05

_DISCIPLINES: Sequence[tuple] = (("leave-in-time", LeaveInTime),
                                 ("fcfs", FCFS))


@dataclass(frozen=True)
class FaultSweepRow:
    """One (discipline × outage) cell of the sweep (times in ms)."""

    discipline: str
    outage_s: float
    packets: int
    max_delay_ms: float
    mean_delay_ms: float
    bound_ms: float
    deadline_misses: int
    observed: int
    cross_dropped: int

    @property
    def bound_holds(self) -> bool:
        return self.max_delay_ms <= self.bound_ms


@dataclass
class FaultSweepResult:
    duration: float
    seed: int
    rows: List[FaultSweepRow] = field(default_factory=list)

    def table(self) -> str:
        return format_table(
            ["discipline", "outage(s)", "pkts", "mean(ms)", "max(ms)",
             "bound(ms)", "misses", "xdrop", "bound holds"],
            [(r.discipline, r.outage_s, r.packets, r.mean_delay_ms,
              r.max_delay_ms, r.bound_ms,
              f"{r.deadline_misses}/{r.observed}", r.cross_dropped,
              "yes" if r.bound_holds else "NO")
             for r in self.rows],
            title=f"Fault sweep — cross-traffic feeder link flaps "
                  f"({self.duration:.0f}s, seed {self.seed})")

    def bounds_hold(self, discipline: str = "leave-in-time") -> bool:
        return all(r.bound_holds for r in self.rows
                   if r.discipline == discipline)


def _build(scheduler_factory: Callable[[], object],
           seed: int) -> Network:
    """Tandem plus the cross-traffic feeder, target, and cross load."""
    network = build_paper_network(scheduler_factory, seed=seed)
    network.add_node(FEEDER, scheduler_factory(),
                     capacity=FEEDER_RATE_BPS,
                     propagation=network.nodes["n1"].link.propagation)
    add_onoff_session(network, TARGET, FIVE_HOP, ms(650),
                      keep_samples=True)
    add_cross_traffic(network, via=(FEEDER,))
    return network


def _plan(outage: float, duration: float) -> FaultPlan:
    """The cell's fault schedule: one feeder flap plus recovery loss."""
    if outage <= 0.0:
        return FaultPlan()
    down_at = duration / 4.0
    up_at = down_at + outage
    loss_stop = min(duration, up_at + 1.0)
    return FaultPlan(
        link_downs=[LinkDown(FEEDER, down_at, up_at)],
        losses=[PacketLoss(FEEDER, up_at, loss_stop,
                           RECOVERY_LOSS_RATE)]
        if loss_stop > up_at else [],
    )


def _cell(*, discipline: str, outage: float, duration: float,
          seed: int) -> FaultSweepRow:
    """One isolated simulation: one discipline, one outage length."""
    factory = dict(_DISCIPLINES)[discipline]
    network = _build(factory, seed)
    plan = _plan(outage, duration)
    injector = None
    if not plan.is_empty:
        injector = FaultInjector(plan).install(network)
    network.run(duration)
    if injector is not None:
        injector.finalize(duration)
    reading = read_target(network, TARGET)
    stats = session_fault_stats(network, TARGET,
                                bound=reading.bounds.max_delay)
    cross_dropped = sum(
        session_fault_stats(network, f"cross-{label}").total_dropped
        for label in CROSS_ONE_HOP_ROUTES)
    return FaultSweepRow(
        discipline=discipline,
        outage_s=outage,
        packets=reading.packets,
        max_delay_ms=reading.max_ms,
        mean_delay_ms=reading.mean_ms,
        bound_ms=reading.bound_ms,
        deadline_misses=stats.deadline_misses,
        observed=stats.observed,
        cross_dropped=cross_dropped,
    )


def cells(*, duration: float, seed: int,
          outages: Sequence[float] = DEFAULT_OUTAGES_S) -> List[Cell]:
    """The declarative sweep: disciplines × outage durations."""
    return [Cell(label=f"fault[{discipline},outage={outage:g}s]",
                 fn=_cell,
                 kwargs={"discipline": discipline, "outage": outage,
                         "duration": duration, "seed": seed})
            for discipline, _ in _DISCIPLINES
            for outage in outages]


def run(*, duration: float = 12.0, seed: int = 0,
        outages: Sequence[float] = DEFAULT_OUTAGES_S,
        workers: Optional[int] = 1) -> FaultSweepResult:
    """Run the sweep; one isolated simulation per cell.

    ``workers`` shards the cells across processes; the merged result
    is bit-identical to the serial ``workers=1`` run (the fault RNG
    substreams are named per node and seeded per cell).
    """
    rows = run_cells(cells(duration=duration, seed=seed,
                           outages=outages),
                     workers=workers)
    return FaultSweepResult(duration=duration, seed=seed, rows=rows)
