"""The firewall property: isolation from misbehaving cross traffic.

The paper's motivation for Poisson cross traffic is to "examine the
firewall property of Leave-in-Time, i.e. that the service guarantees of
a session are independent of the behavior of other sessions". This
experiment makes the contrast explicit:

* a well-behaved five-hop ON-OFF target session (32 kbit/s reserved),
* cross traffic on every one-hop route that *offers more than it
  reserved* (Poisson at ``overload`` × its reservation),
* the same scenario under Leave-in-Time and under FCFS.

Under Leave-in-Time the target's delay stays below its eq.-12 bound
regardless of the overload; under FCFS the overload floods the shared
queue and the target's delay grows without any bound to compare to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.analysis.report import format_table
from repro.experiments.common import (
    FIVE_HOP,
    PAPER_CROSS_POISSON_RATE_BPS,
    PAPER_PACKET_BITS,
    TARGET,
    add_cross_traffic,
    add_onoff_session,
    read_target,
)
from repro.net.topology import build_paper_network
from repro.sched.fcfs import FCFS
from repro.sched.leave_in_time import LeaveInTime
from repro.units import ms

__all__ = ["FirewallResult", "run"]


@dataclass(frozen=True)
class FirewallOutcome:
    discipline: str
    packets: int
    max_delay_ms: float
    mean_delay_ms: float
    bound_ms: float

    @property
    def bound_holds(self) -> bool:
        return self.max_delay_ms <= self.bound_ms


@dataclass
class FirewallResult:
    duration: float
    seed: int
    overload: float
    outcomes: Dict[str, FirewallOutcome]

    def table(self) -> str:
        rows = [(o.discipline, o.packets, o.mean_delay_ms, o.max_delay_ms,
                 o.bound_ms, "yes" if o.bound_holds else "NO")
                for o in self.outcomes.values()]
        return format_table(
            ["discipline", "pkts", "mean(ms)", "max(ms)", "bound(ms)",
             "bound holds"],
            rows,
            title=f"Firewall property — cross traffic at "
                  f"{self.overload:.1f}x its reservation "
                  f"({self.duration:.0f}s, seed {self.seed})")


def _run_one(discipline: str, scheduler_factory: Callable[[], object], *,
             duration: float, seed: int, overload: float
             ) -> FirewallOutcome:
    network = build_paper_network(scheduler_factory, seed=seed)
    add_onoff_session(network, TARGET, FIVE_HOP, ms(650))
    # Cross sessions reserve the paper's 1472 kbit/s but offer
    # `overload` times that much: mean interarrival shrinks by the
    # overload factor.
    honest_mean = PAPER_PACKET_BITS / PAPER_CROSS_POISSON_RATE_BPS
    add_cross_traffic(network, mean=honest_mean / overload)
    network.run(duration)
    reading = read_target(network, TARGET)
    return FirewallOutcome(
        discipline=discipline,
        packets=reading.packets,
        max_delay_ms=reading.max_ms,
        mean_delay_ms=reading.mean_ms,
        bound_ms=reading.bound_ms,
    )


def run(*, duration: float = 30.0, seed: int = 0,
        overload: float = 1.15) -> FirewallResult:
    """Compare Leave-in-Time and FCFS under overloaded cross traffic."""
    outcomes = {
        "leave-in-time": _run_one("leave-in-time", LeaveInTime,
                                  duration=duration, seed=seed,
                                  overload=overload),
        "fcfs": _run_one("fcfs", FCFS, duration=duration, seed=seed,
                         overload=overload),
    }
    return FirewallResult(duration=duration, seed=seed,
                          overload=overload, outcomes=outcomes)
