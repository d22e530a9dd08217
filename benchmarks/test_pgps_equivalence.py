"""PGPS-equality bench (Section 2/4).

Two checks:

* analytic — eq. 15 under ACP1/one-class/d = L/r equals the
  Parekh-Gallager PGPS bound for every hop count (digit for digit);
* simulated — Leave-in-Time and WFQ run the same token-bucket-
  conformant workload; both stay below the (shared) bound.
"""

import pytest
from conftest import bench_duration

from repro.analysis.report import format_table
from repro.bounds.comparisons import pgps_delay_bound
from repro.bounds.delay import compute_session_bounds
from repro.experiments.common import (
    FIVE_HOP,
    add_cross_traffic,
    add_onoff_session,
)
from repro.net.topology import build_paper_network
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.wfq import WFQ
from repro.units import T1_RATE_BPS, kbps, to_ms


def run_discipline(factory, duration):
    network = build_paper_network(factory, seed=21)
    target = add_onoff_session(network, "t", FIVE_HOP, 650e-3)
    add_cross_traffic(network)
    network.run(duration)
    bounds = compute_session_bounds(network, target)
    return network.sink("t"), bounds


def test_pgps_equivalence(run_once):
    duration = bench_duration(20.0)
    lit_sink, lit_bounds = run_once(
        lambda: run_discipline(LeaveInTime, duration))
    wfq_sink, _ = run_discipline(WFQ, duration)

    rows = []
    for hops in (1, 2, 3, 5, 8):
        pgps = pgps_delay_bound(424.0, kbps(32), 424.0, 424.0,
                                [T1_RATE_BPS] * hops, [1e-3] * hops)
        d_max = 424.0 / 32_000.0
        from repro.bounds.delay import (beta_constant, delay_bound,
                                        token_bucket_reference_delay)
        lit = delay_bound(
            token_bucket_reference_delay(424.0, kbps(32)),
            beta_constant(424.0, [T1_RATE_BPS] * hops, [1e-3] * hops,
                          [d_max] * hops), 0.0)
        rows.append((hops, to_ms(lit), to_ms(pgps),
                     "yes" if abs(lit - pgps) < 1e-12 else "NO"))
        assert abs(lit - pgps) < 1e-12
    print()
    print(format_table(["hops", "LiT eq.15 (ms)", "PGPS (ms)", "equal"],
                       rows, title="PGPS bound equality"))
    print(f"\nsimulated max delay: LiT {to_ms(lit_sink.max_delay):.2f} "
          f"ms, WFQ {to_ms(wfq_sink.max_delay):.2f} ms, shared bound "
          f"{to_ms(lit_bounds.max_delay):.2f} ms")
    assert lit_sink.max_delay <= lit_bounds.max_delay
    assert wfq_sink.max_delay <= lit_bounds.max_delay
