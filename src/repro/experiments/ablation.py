"""Ablation: exact heap vs approximate O(1) calendar deadline queue.

The paper notes Leave-in-Time "uses an approximate sorted priority
queue algorithm which runs in O(1) time with a small cost in emulation
error". This experiment runs the same CROSS workload with both queue
implementations and reports:

* the target session's max delay and jitter under each queue,
* the scheduler's maximum observed lateness (F̂ − F) — the emulation
  error, which for the exact queue stays below one maximum-packet
  transmission time and for the approximate queue grows by at most one
  bin width,
* wall-clock event throughput, the O(1) payoff.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict

from repro.analysis.report import format_table
from repro.bounds.delay import compute_session_bounds
from repro.experiments.common import (
    add_onoff_session,
    add_poisson_cross_traffic,
)
from repro.net.topology import build_paper_network
from repro.sched.calendar_queue import ApproximateDeadlineQueue
from repro.sched.leave_in_time import LeaveInTime
from repro.units import ATM_PACKET_BITS, T1_RATE_BPS, ms, to_ms

__all__ = ["AblationOutcome", "AblationResult", "run"]

TARGET = "onoff-target"
FIVE_HOP = ("n1", "n2", "n3", "n4", "n5")


@dataclass(frozen=True)
class AblationOutcome:
    queue: str
    packets: int
    max_delay_ms: float
    jitter_ms: float
    bound_ms: float
    max_lateness_ms: float
    events_per_second: float

    @property
    def bound_holds(self) -> bool:
        return self.max_delay_ms <= self.bound_ms


@dataclass
class AblationResult:
    duration: float
    seed: int
    bin_width: float
    outcomes: Dict[str, AblationOutcome]

    def table(self) -> str:
        rows = [(o.queue, o.packets, o.max_delay_ms, o.jitter_ms,
                 o.bound_ms, o.max_lateness_ms,
                 f"{o.events_per_second:,.0f}")
                for o in self.outcomes.values()]
        return format_table(
            ["queue", "pkts", "max(ms)", "jitter(ms)", "bound(ms)",
             "lateness(ms)", "events/s"],
            rows,
            title=f"Ablation — heap vs calendar deadline queue "
                  f"(bin {to_ms(self.bin_width):.3f} ms, "
                  f"{self.duration:.0f}s)")


def _run_one(name: str, queue_factory, *, duration: float,
             seed: int) -> AblationOutcome:
    factory = (LeaveInTime if queue_factory is None
               else (lambda: LeaveInTime(queue=queue_factory())))
    network = build_paper_network(factory, seed=seed)
    target = add_onoff_session(network, TARGET, FIVE_HOP, ms(650))
    add_poisson_cross_traffic(network)
    # Wall-clock on purpose: this experiment *measures* real event
    # throughput (the O(1) calendar-queue payoff), not simulated time.
    started = time.perf_counter()  # repro: disable=no-wallclock
    network.run(duration)
    wall = time.perf_counter() - started  # repro: disable=no-wallclock
    sink = network.sink(TARGET)
    bounds = compute_session_bounds(network, target)
    max_lateness = max(
        network.node(n).scheduler.lateness.maximum or 0.0
        for n in FIVE_HOP)
    return AblationOutcome(
        queue=name,
        packets=sink.received,
        max_delay_ms=to_ms(sink.max_delay),
        jitter_ms=to_ms(sink.jitter),
        bound_ms=to_ms(bounds.max_delay),
        max_lateness_ms=to_ms(max_lateness),
        events_per_second=network.sim.events_dispatched / wall,
    )


def run(*, duration: float = 20.0, seed: int = 0,
        bin_width: float | None = None) -> AblationResult:
    """Compare the two queues on the CROSS workload.

    ``bin_width`` defaults to one maximum-packet transmission time on
    the T1 link (424/1536000 s ≈ 0.276 ms).
    """
    if bin_width is None:
        bin_width = ATM_PACKET_BITS / T1_RATE_BPS
    outcomes = {
        "heap": _run_one("heap", None, duration=duration, seed=seed),
        "calendar": _run_one(
            "calendar",
            lambda: ApproximateDeadlineQueue(bin_width),
            duration=duration, seed=seed),
    }
    return AblationResult(duration=duration, seed=seed,
                          bin_width=bin_width, outcomes=outcomes)
