"""The kernel spin: pure event dispatch, no network on top.

One self-rescheduling tick, so the number it produces is the
substrate's ceiling, not any experiment's.  The ledger's ``probes``
time it (``sim.kernel.spin_ev_per_s``);
``tests/net/test_hop_path_budget.py`` pins its event, call and
allocation counts exactly.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis import bench
from repro.units import ms, seconds

__all__ = ["kernel_spin"]

#: Tick interval of the spin workload: 0.1 ms, i.e. 10 001 events per
#: simulated second (plus/minus one from float accumulation).
TICK = ms(0.1)


def kernel_spin(horizon: float = seconds(1.0)) -> Tuple[int, float]:
    """One timed spin; returns ``(events_dispatched, wall_seconds)``."""
    from repro.sim.kernel import Simulator

    watch = bench.Stopwatch()
    sim = Simulator()

    def tick() -> None:
        if sim.now < horizon:
            sim.schedule(TICK, tick)  # repro: disable=untiebroken-event-transitive -- pure-dispatch benchmark; the kwarg would perturb the measured workload

    sim.schedule(0.0, tick)  # repro: disable=untiebroken-event-transitive -- pure-dispatch benchmark; the kwarg would perturb the measured workload
    sim.run()
    return sim.events_dispatched, watch.elapsed()
