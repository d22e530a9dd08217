"""Heterogeneous networks: mixed link speeds and propagation delays.

The paper's formulas carry per-node C_n and Γ_n even though its
experiments use identical T1 links; these tests exercise the per-hop
generality — a slow middle link, asymmetric propagation — end to end.
"""

import pytest

from repro.bounds.delay import compute_session_bounds
from repro.net.network import Network
from repro.net.session import Session
from repro.sched.leave_in_time import LeaveInTime
from repro.traffic.onoff import OnOffSource
from repro.traffic.trace_source import TraceSource
from repro.units import ms


def build_mixed_network(*, jitter_control=False, seed=0):
    """Fast-slow-fast tandem with uneven propagation."""
    network = Network(seed=seed)
    network.add_node("fast-in", LeaveInTime(), capacity=1e6,
                     propagation=0.002)
    network.add_node("slow", LeaveInTime(), capacity=128_000.0,
                     propagation=0.010)
    network.add_node("fast-out", LeaveInTime(), capacity=1e6,
                     propagation=0.001)
    session = Session("s", rate=32_000.0,
                      route=["fast-in", "slow", "fast-out"],
                      l_max=424.0, jitter_control=jitter_control,
                      token_bucket=(32_000.0, 424.0))
    network.add_session(session)
    OnOffSource(network, session, length=424.0, spacing=ms(13.25),
                mean_on=ms(352), mean_off=ms(88))
    # Competing traffic sized to each link.
    for name, rate in (("fast-in", 800_000.0), ("slow", 64_000.0),
                       ("fast-out", 800_000.0)):
        bg = Session(f"bg-{name}", rate=rate, route=[name], l_max=424.0)
        network.add_session(bg, keep_samples=False)
        OnOffSource(network, bg, length=424.0, spacing=424.0 / rate,
                    mean_on=ms(352), mean_off=ms(88),
                    stream_name=f"bg-{name}")
    return network, session


class TestMixedLinkBounds:
    def test_beta_uses_per_hop_constants(self):
        network, session = build_mixed_network()
        bounds = compute_session_bounds(network, session)
        d_max = 424.0 / 32_000.0
        expected_beta = (
            (424.0 / 1e6 + 0.002)
            + (424.0 / 128_000.0 + 0.010)
            + (424.0 / 1e6 + 0.001)
            + 2 * d_max)
        assert bounds.beta == pytest.approx(expected_beta)

    def test_delay_bound_holds_on_mixed_links(self):
        network, session = build_mixed_network(seed=3)
        network.run(30.0)
        bounds = compute_session_bounds(network, session)
        sink = network.sink("s")
        assert sink.received > 100
        assert sink.max_delay <= bounds.max_delay

    def test_jitter_bound_holds_with_control_on_mixed_links(self):
        network, session = build_mixed_network(jitter_control=True,
                                               seed=4)
        network.run(30.0)
        bounds = compute_session_bounds(network, session)
        sink = network.sink("s")
        assert sink.jitter <= bounds.jitter
        assert sink.max_delay <= bounds.max_delay

    def test_buffer_bounds_scale_with_slow_link(self):
        network, session = build_mixed_network()
        bounds = compute_session_bounds(network, session)
        # The slow link's L_MAX/C term makes its bound the largest of
        # the first two hops.
        assert bounds.buffers[1] > bounds.buffers[0]

    def test_holding_time_uses_upstream_capacity(self):
        # Deterministic single-packet check across the speed change:
        # A = F + L_MAX/C_upstream − F̂ must use the slow link's C when
        # stamping at the slow node.
        network = Network(l_max_network=424.0)
        network.add_node("a", LeaveInTime(), capacity=1e6)
        network.add_node("b", LeaveInTime(), capacity=100_000.0)
        network.add_node("c", LeaveInTime(), capacity=1e6)
        session = Session("s", rate=50_000.0, route=["a", "b", "c"],
                          l_max=424.0, jitter_control=True)
        sink = network.add_session(session)
        TraceSource(network, session, times=[0.0], lengths=424.0)
        network.run(10.0)
        # Node a: F = 424/50000 = 8.48 ms, F̂ = 0.424 ms,
        #   A_b = F + 424/1e6 − F̂ = 8.48 + 0.424 − 0.424 = 8.48 ms.
        # Node b: arrives 0.424 ms, E = 8.904 ms, F = E + 8.48,
        #   F̂ = E + 4.24 (slow link), A_c = F + 4.24 − F̂ = 8.48 ms.
        # Node c: arrives E_b-tx-end = 13.144, E = 21.624, sends
        #   0.424 → delivered 22.048 ms.
        assert sink.received == 1
        assert sink.max_delay == pytest.approx(22.048e-3, abs=1e-6)
