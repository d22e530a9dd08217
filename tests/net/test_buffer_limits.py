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
    add_onoff_session,
    add_poisson_cross_traffic,
)
from repro.net.topology import build_paper_network
from repro.sched.fcfs import FCFS
from repro.sched.leave_in_time import LeaveInTime
from repro.units import ms
from tests.conftest import add_trace_session, make_network

FIVE_HOP = ("n1", "n2", "n3", "n4", "n5")


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

    def test_rejects_non_positive_limit(self):
        network = make_network(FCFS)
        with pytest.raises(SimulationError):
            network.node("n1").set_buffer_limit("s", 0.0)

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
        add_poisson_cross_traffic(network)
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
        add_poisson_cross_traffic(network)
        provision_buffers(network, target)
        network.run(20.0)
        assert all(network.node(n).drops.get("t", 0) == 0
                   for n in FIVE_HOP)

    def test_starved_buffer_drops(self):
        # A 1-packet buffer under the same load must drop: shows the
        # enforcement is real, not vacuous.
        network = build_paper_network(LeaveInTime, seed=17)
        target = add_onoff_session(network, "t", FIVE_HOP, ms(6.5))
        add_poisson_cross_traffic(network)
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
