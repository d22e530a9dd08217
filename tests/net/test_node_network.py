"""Integration-grade unit tests for ServerNode + Network forwarding.

Driven with FCFS (the simplest discipline) so the assertions isolate
the node/link/delivery timing semantics the paper fixes: store and
forward, L/C transmission, Γ propagation, last-bit arrival.
"""

import pytest

from repro.errors import AdmissionError, ConfigurationError, SimulationError
from repro.net.network import Network
from repro.net.session import Session
from repro.sched.fcfs import FCFS
from repro.sched.hrr import HierarchicalRoundRobin
from tests.conftest import add_trace_session, make_network


class TestSingleNodeTiming:
    def test_single_packet_delay_is_transmission_plus_propagation(self):
        network = make_network(FCFS, capacity=1000.0, propagation=0.5)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0], lengths=100.0)
        network.run(10.0)
        # 100 bits / 1000 bps = 0.1 s transmission + 0.5 s propagation.
        assert sink.received == 1
        assert sink.max_delay == pytest.approx(0.6)

    def test_back_to_back_packets_queue(self):
        network = make_network(FCFS, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0, 0.0, 0.0],
            lengths=100.0)
        network.run(10.0)
        delays = sink.samples
        assert delays == pytest.approx([0.1, 0.2, 0.3])

    def test_idle_gap_resets_queueing(self):
        network = make_network(FCFS, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0, 1.0], lengths=100.0)
        network.run(10.0)
        assert sink.samples == pytest.approx([0.1, 0.1])


class TestTandemTiming:
    def test_two_hop_delay_accumulates(self):
        network = make_network(FCFS, nodes=2, capacity=1000.0,
                               propagation=0.25)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0], lengths=100.0,
            route=["n1", "n2"])
        network.run(10.0)
        # Two transmissions and two propagations.
        assert sink.max_delay == pytest.approx(2 * 0.1 + 2 * 0.25)

    def test_store_and_forward_no_cut_through(self):
        # Second node cannot start before the whole packet arrived.
        network = make_network(FCFS, nodes=2, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0], lengths=1000.0,
            route=["n1", "n2"])
        network.run(10.0)
        assert sink.max_delay == pytest.approx(2.0)

    def test_packets_delivered_in_order_per_session(self):
        network = make_network(FCFS, nodes=3, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0, 0.05, 0.4],
            lengths=100.0, route=["n1", "n2", "n3"])
        network.run(10.0)
        assert [p.seq for p in sink.packets] == [1, 2, 3]


class TestBufferAccounting:
    def test_occupancy_counts_packet_in_transmission(self):
        network = make_network(FCFS, capacity=1000.0)
        session = Session("s", rate=100.0, route=["n1"], l_max=100.0,
                          monitor_buffer=True)
        network.add_session(session)
        from repro.traffic.trace_source import TraceSource
        TraceSource(network, session, times=[0.0, 0.05], lengths=100.0)
        network.run(10.0)
        samples = network.node("n1").buffer_samples["s"]
        # First arrival: itself only (100). Second arrives while the
        # first is still transmitting: 200 bits present.
        assert samples == [100.0, 200.0]

    def test_peak_tracked_for_unmonitored_sessions(self):
        network = make_network(FCFS, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0, 0.0], lengths=100.0)
        network.run(10.0)
        assert network.node("n1").buffer_peak["s"] == 200.0

    def test_occupancy_returns_to_zero(self):
        network = make_network(FCFS, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0], lengths=100.0)
        network.run(10.0)
        assert network.node("n1").buffer_bits["s"] == pytest.approx(0.0)


class TestNodeStats:
    def test_utilization(self):
        network = make_network(FCFS, capacity=1000.0)
        add_trace_session(network, "s", rate=100.0,
                          times=[0.0, 0.1, 0.2, 0.3], lengths=100.0)
        network.run(1.0)
        # 4 packets x 0.1 s busy over 1 s.
        assert network.node("n1").utilization() == pytest.approx(0.4)

    def test_counters(self):
        network = make_network(FCFS, capacity=1000.0)
        add_trace_session(network, "s", rate=100.0, times=[0.0, 0.5],
                          lengths=100.0)
        network.run(10.0)
        node = network.node("n1")
        assert node.packets_served == 2
        assert node.bits_served == 200.0


class TestNetworkValidation:
    def test_duplicate_node_rejected(self):
        network = make_network(FCFS)
        with pytest.raises(ConfigurationError):
            network.add_node("n1", FCFS(), capacity=1000.0)

    def test_duplicate_session_rejected(self):
        network = make_network(FCFS)
        add_trace_session(network, "s", rate=1.0, times=[], lengths=1.0)
        with pytest.raises(ConfigurationError):
            add_trace_session(network, "s", rate=1.0, times=[],
                              lengths=1.0)

    def test_unknown_route_node_rejected(self):
        network = make_network(FCFS)
        session = Session("s", rate=1.0, route=["n9"], l_max=1.0)
        with pytest.raises(ConfigurationError):
            network.add_session(session)

    def test_state_backend_argument_selects_nothing(self):
        # Kept for benchmarks/ledger: old names inert, garbage refused.
        for name in (None, "objects", "soa"):
            assert Network(state_backend=name).state_backend == "soa"
        with pytest.raises(ConfigurationError, match="bogus"):
            Network(state_backend="bogus")

    def test_session_live_in_another_network_rejected(self):
        # Its slot indexes the first network's table rows.
        session = Session("s", rate=1.0, route=["n1"], l_max=100.0)
        make_network(FCFS).add_session(session)
        with pytest.raises(ConfigurationError, match="already holds slot"):
            make_network(FCFS).add_session(session)

    def test_packet_of_a_session_never_added_fails_loud(self):
        from repro.net.packet import Packet
        network = make_network(FCFS)
        stray = Session("s", rate=1.0, route=["n1"], l_max=100.0)
        with pytest.raises(SimulationError, match="Network.add_session"):
            network.node("n1").receive(Packet(stray, 1, 100.0, 0.0))

    def test_oversized_packet_rejected_at_injection(self):
        network = make_network(FCFS)
        session = Session("s", rate=1.0, route=["n1"], l_max=100.0)
        network.add_session(session)
        with pytest.raises(SimulationError):
            network.inject(session, 200.0)

    @pytest.mark.parametrize("length", [float("nan"), -5.0, 0.0])
    def test_unusable_length_rejected_at_injection(self, length):
        # Used to be accepted; a negative one tripped a length check
        # hops later, NaN and zero never did.
        network = make_network(FCFS)
        session = Session("s", rate=1.0, route=["n1"], l_max=100.0)
        network.add_session(session)
        with pytest.raises(SimulationError, match="positive"):
            network.inject(session, length)
        assert session.packets_sent == 0
        assert network.sim.pending == 0
        network.inject(session, 100.0)
        network.run(1000.0)
        assert network.sink("s").received == 1

    def test_source_drawing_a_nan_length_stops_the_run(self):
        from repro.traffic.deterministic import DeterministicSource
        network = make_network(FCFS)
        session = Session("s", rate=1.0, route=["n1"], l_max=100.0)
        network.add_session(session)

        class Broken(DeterministicSource):
            def intervals(self):
                for gap in super().intervals():
                    if self.emitted == 2:
                        self.length = float("nan")
                    yield gap

        source = Broken(network, session, length=100.0, interval=1.0)
        with pytest.raises(SimulationError, match="positive"):
            network.run(10.0)
        assert source.emitted == 2

    def test_l_max_tracks_registered_sessions(self):
        network = make_network(FCFS)
        add_trace_session(network, "a", rate=1.0, times=[], lengths=64.0)
        add_trace_session(network, "b", rate=1.0, times=[], lengths=424.0)
        assert network.l_max == 424.0

    def test_l_max_explicit_override(self):
        network = make_network(FCFS, l_max_network=1000.0)
        add_trace_session(network, "a", rate=1.0, times=[], lengths=64.0)
        assert network.l_max == 1000.0

    def test_l_max_unknown_raises(self):
        network = make_network(FCFS)
        with pytest.raises(ConfigurationError):
            network.l_max

    def test_reserved_rate_sums_route_members(self):
        network = make_network(FCFS, nodes=2)
        add_trace_session(network, "a", rate=10.0, times=[], lengths=1.0,
                          route=["n1", "n2"])
        add_trace_session(network, "b", rate=5.0, times=[], lengths=1.0,
                          route=["n2"])
        assert network.reserved_rate("n1") == 10.0
        assert network.reserved_rate("n2") == 15.0

    def test_reserved_rate_is_exactly_rounded(self):
        # Summed left to right, 0.1 + 0.2 + 0.3 reads 0.6000000000000001;
        # admission's ``math.fsum`` reads 0.6, and so does the network.
        network = make_network(FCFS)
        for session_id, rate in (("a", 0.1), ("b", 0.2), ("c", 0.3)):
            add_trace_session(network, session_id, rate=rate, times=[],
                              lengths=1.0)
        assert network.reserved_rate("n1") == 0.6


class TestRefusedSession:
    """A session a scheduler refuses leaves the network as it found it.

    Hierarchical Round Robin's ``register_session`` is an admission
    test (the frame budget): on a route whose second node cannot fit
    the session, the first node has already accepted it.
    """

    def test_hrr_rollback_and_retry(self):
        # n1 at 10^6 b/s accepts 5·10^5 b/s; n2 at 10^5 b/s refuses it.
        network = make_network(lambda: HierarchicalRoundRobin(frame=0.01),
                               capacity=1e6)
        network.add_node("n2", HierarchicalRoundRobin(frame=0.01),
                         capacity=1e5)
        big = Session("big", rate=5e5, route=["n1", "n2"], l_max=424.0,
                      monitor_buffer=True)
        with pytest.raises(AdmissionError, match="HRR cannot fit"):
            network.add_session(big)
        assert "big" not in network.sessions
        assert "big" not in network.sinks
        assert big.slot == -1
        assert len(network.session_table) == 0
        with pytest.raises(ConfigurationError, match="L_MAX unknown"):
            network.l_max
        for node in network.nodes.values():
            assert node.buffer_bits == {}
            assert node._samples == {}
        first = network.node("n1").scheduler
        assert first._reserved == 0.0
        assert first._queues == {} and first._order == []
        # Retry at a rate both nodes fit.
        _, sink, _ = add_trace_session(
            network, "big", rate=5e4, times=[0.0, 0.01], lengths=424.0,
            route=["n1", "n2"])
        network.run(1.0)
        assert sink.received == 2
