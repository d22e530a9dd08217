"""Finite buffers: drops, and loss-free operation at the bound.

The paper's buffer bounds imply a provisioning rule: give each session
its bound worth of buffer at every node and it never loses a packet.
These tests enforce the limits and check both directions — provisioned
at the bound means zero drops; starved means counted drops.
"""

import pytest

from repro.bounds.delay import compute_session_bounds, provision_buffers
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.common import (
    FIVE_HOP,
    add_cross_traffic,
    add_onoff_session,
)
from repro.net.network import Network
from repro.net.topology import build_paper_network
from repro.sched.fcfs import FCFS
from repro.sched.leave_in_time import LeaveInTime
from repro.units import ms
from tests.conftest import add_trace_session, make_network


class TestDropMechanics:
    def test_over_limit_arrival_dropped_and_counted(self):
        network = make_network(FCFS, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0, 0.0, 0.0],
            lengths=100.0)
        network.node("n1").set_buffer_limit("s", 200.0)
        network.run(10.0)
        assert sink.received == 2
        assert network.node("n1").drops["s"] == 1

    def test_dropped_packet_frees_no_buffer(self):
        network = make_network(FCFS, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0, 0.0, 0.15],
            lengths=100.0)
        network.node("n1").set_buffer_limit("s", 200.0)
        network.run(10.0)
        # At 0.15 the first packet has departed (0.1), so the third
        # fits again.
        assert sink.received == 3

    def test_limit_is_per_session(self):
        network = make_network(FCFS, capacity=1000.0)
        _, sink_a, _ = add_trace_session(
            network, "a", rate=100.0, times=[0.0, 0.0], lengths=100.0)
        _, sink_b, _ = add_trace_session(
            network, "b", rate=100.0, times=[0.0, 0.0], lengths=100.0)
        network.node("n1").set_buffer_limit("a", 100.0)
        network.run(10.0)
        assert sink_a.received == 1
        assert sink_b.received == 2

    def test_a_recycled_slot_starts_unlimited(self):
        # Limits are a sparse slot -> bits map: the teardown that frees
        # the slot must take the entry with it.
        network = make_network(FCFS, capacity=1000.0)
        old, _, source = add_trace_session(network, "old", rate=100.0,
                                           times=[], lengths=100.0)
        node = network.node("n1")
        node.set_buffer_limit("old", 100.0)
        slot = old.slot
        source.stop()
        network.remove_session("old")  # nothing in flight: freed now
        assert node._limits == {}
        new, sink, _ = add_trace_session(network, "new", rate=100.0,
                                         times=[0.0] * 3, lengths=100.0)
        assert new.slot == slot
        network.run(10.0)
        assert sink.received == 3 and node.drops == {}

    def test_a_draining_session_keeps_its_limit_until_it_finalizes(self):
        # n1 sends three 100-bit packets in 0.3 s; they reach the slow
        # n2 (10 s each) at 5.1 / 5.2 / 5.3, after the removal, and the
        # third finds 200 bits there: over the limit.
        network = Network()
        network.add_node("n1", FCFS(), capacity=1000.0, propagation=5.0)
        network.add_node("n2", FCFS(), capacity=10.0)
        session, sink, source = add_trace_session(
            network, "s", rate=1.0, times=[0.0] * 3, lengths=100.0)
        n2 = network.node("n2")
        n2.set_buffer_limit("s", 200.0)
        network.run(1.0)
        source.stop()
        network.remove_session("s")
        assert "s" in network._draining
        network.run(6.0)
        assert n2.drops == {"s": 1} and n2.buffer_peak["s"] == 200.0
        assert n2._limits == {session.slot: 200.0}
        network.run(30.0)  # the second delivery, at 25.1, finalizes it
        assert sink.received == 2 and session.slot == -1
        assert n2._limits == {} and n2.drops == {}
        assert "s" not in n2.buffer_peak

    def test_rejects_non_positive_limit(self):
        network = make_network(FCFS)
        with pytest.raises(SimulationError):
            network.node("n1").set_buffer_limit("s", 0.0)

    def test_rejects_a_nan_limit_and_a_non_number(self):
        # ``occupancy > nan`` is never true: a NaN limit used to be
        # stored and silently enforce nothing.
        network = make_network(FCFS)
        node = network.node("n1")
        with pytest.raises(SimulationError, match="must be positive"):
            node.set_buffer_limit("s", float("nan"))
        with pytest.raises(ConfigurationError,
                           match="node n1: buffer limit for session 's'"):
            node.set_buffer_limit("s", "500")

    def test_infinite_limit_means_no_limit(self):
        network = make_network(FCFS, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0] * 5, lengths=100.0)
        network.node("n1").set_buffer_limit("s", float("inf"))
        network.run(10.0)
        assert sink.received == 5

    def test_rejects_a_session_the_network_does_not_know(self):
        # Used to create a record silently on one state backend.
        network = make_network(FCFS)
        with pytest.raises(SimulationError, match="add the session"):
            network.node("n1").set_buffer_limit("ghost", 500.0)


class TestProvisioningAtTheBound:
    def test_provisioned_session_never_drops(self):
        # The falsifiable form of the buffer bound: enforce it as a hard
        # limit on a loaded network; any drop would disprove eq. Q.
        network = build_paper_network(LeaveInTime, seed=17)
        target = add_onoff_session(network, "t", FIVE_HOP, ms(650))
        add_cross_traffic(network)
        limits = provision_buffers(network, target)
        assert len(limits) == 5
        network.run(20.0)
        for node_name in FIVE_HOP:
            assert network.node(node_name).drops.get("t", 0) == 0
        assert network.sink("t").received > 0

    def test_provisioned_jitter_controlled_session_never_drops(self):
        network = build_paper_network(LeaveInTime, seed=18)
        target = add_onoff_session(network, "t", FIVE_HOP, ms(650),
                                   jitter_control=True)
        add_cross_traffic(network)
        provision_buffers(network, target)
        network.run(20.0)
        assert all(network.node(n).drops.get("t", 0) == 0
                   for n in FIVE_HOP)

    def test_starved_buffer_drops(self):
        # A 1-packet buffer under the same load must drop: shows the
        # enforcement is real, not vacuous.
        network = build_paper_network(LeaveInTime, seed=17)
        target = add_onoff_session(network, "t", FIVE_HOP, ms(6.5))
        add_cross_traffic(network)
        for node_name in FIVE_HOP:
            network.node(node_name).set_buffer_limit("t", 424.0)
        network.run(20.0)
        total_drops = sum(network.node(n).drops.get("t", 0)
                          for n in FIVE_HOP)
        assert total_drops > 0

    def test_provisioning_requires_bounds(self):
        network = make_network(LeaveInTime, capacity=1000.0)
        session, _, _ = add_trace_session(
            network, "s", rate=100.0, times=[], lengths=100.0)
        with pytest.raises(ConfigurationError):
            provision_buffers(network, session)

    def test_explicit_bounds_accepted(self):
        network = make_network(LeaveInTime, capacity=1000.0)
        session, _, _ = add_trace_session(
            network, "s", rate=100.0, times=[], lengths=100.0,
            token_bucket=(100.0, 100.0))
        bounds = compute_session_bounds(network, session)
        limits = provision_buffers(network, session, bounds=bounds,
                                   headroom_bits=424.0)
        assert limits[0] == pytest.approx(bounds.buffers[0] + 424.0)

    def test_nan_headroom_is_refused(self):
        network = make_network(LeaveInTime, capacity=1000.0)
        session, _, _ = add_trace_session(
            network, "s", rate=100.0, times=[], lengths=100.0,
            token_bucket=(100.0, 100.0))
        with pytest.raises(SimulationError, match="must be positive"):
            provision_buffers(network, session, headroom_bits=float("nan"))
