"""Edge-case coverage across disciplines and the forwarding path."""

import pytest

from repro.net.session import Session
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.stop_and_go import StopAndGo
from repro.sched.wfq import WFQ
from tests.conftest import (VirtualClockOracle, add_trace_session,
                            make_network)


class TestZeroPropagationVsNonzero:
    @pytest.mark.parametrize("propagation", [0.0, 0.005])
    def test_delay_shifts_by_total_propagation(self, propagation):
        network = make_network(LeaveInTime, nodes=3, capacity=1000.0,
                               propagation=propagation)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0], lengths=100.0,
            route=["n1", "n2", "n3"])
        network.run(10.0)
        assert sink.max_delay == pytest.approx(3 * 0.1
                                               + 3 * propagation)


class TestSimultaneousSessionsDeterminism:
    def test_same_seed_same_results(self):
        def run():
            network = make_network(LeaveInTime, nodes=2,
                                   capacity=10_000.0, seed=77)
            from repro.traffic.poisson import PoissonSource
            sinks = []
            for index in range(3):
                session = Session(f"s{index}", rate=3000.0,
                                  route=["n1", "n2"], l_max=424.0)
                sinks.append(network.add_session(session))
                PoissonSource(network, session, length=424.0,
                              mean=0.2)
            network.run(30.0)
            return [tuple(sink.samples) for sink in sinks]

        assert run() == run()


class TestLiTRegression:
    def test_mixed_jitter_control_sessions_share_a_node(self):
        # One controlled and one uncontrolled session through the same
        # tandem: holds apply only to the controlled one.
        network = make_network(LeaveInTime, nodes=2, capacity=1000.0,
                               trace=True)
        add_trace_session(network, "jc", rate=100.0, times=[0.0],
                          lengths=100.0, route=["n1", "n2"],
                          jitter_control=True)
        _, sink_nc, _ = add_trace_session(
            network, "nc", rate=100.0, times=[0.0], lengths=100.0,
            route=["n1", "n2"])
        network.run(20.0)
        # The uncontrolled session's packet is never held at n2.
        for record in network.tracer.filter("deadline", node="n2",
                                            session="nc"):
            assert record.detail["eligible"] == pytest.approx(
                record.time)
        # The controlled session's was.
        held = [r for r in network.tracer.filter("deadline", node="n2",
                                                 session="jc")]
        assert held[0].detail["eligible"] > held[0].time

    def test_k_state_unaffected_by_other_sessions(self):
        # Firewall at the recursion level: session a's K/F values are
        # identical whether or not b exists.
        def deadlines(with_b):
            network = make_network(LeaveInTime, capacity=10_000.0)
            _, sink, _ = add_trace_session(
                network, "a", rate=1000.0, times=[0.0, 0.1, 0.2],
                lengths=424.0)
            if with_b:
                add_trace_session(network, "b", rate=1000.0,
                                  times=[0.0, 0.05], lengths=424.0)
            network.run(20.0)
            return [p.deadline for p in sink.packets]

        assert deadlines(False) == pytest.approx(deadlines(True))


class TestVirtualTimeDisciplineEdges:
    @pytest.mark.parametrize("factory", [WFQ, VirtualClockOracle])
    def test_empty_queue_returns_none(self, factory):
        network = make_network(factory, capacity=1000.0)
        assert network.node("n1").scheduler.next_packet(0.0) is None

    @pytest.mark.parametrize("factory", [WFQ, VirtualClockOracle])
    def test_single_packet_roundtrip(self, factory):
        network = make_network(factory, capacity=1000.0)
        _, sink, _ = add_trace_session(network, "s", rate=100.0,
                                       times=[0.5], lengths=100.0)
        network.run(10.0)
        assert sink.received == 1
        assert sink.max_delay == pytest.approx(0.1)


class TestStopAndGoEdge:
    def test_packet_arriving_exactly_on_boundary_waits_full_frame(self):
        network = make_network(lambda: StopAndGo(frame=0.5),
                               capacity=1000.0)
        _, sink, _ = add_trace_session(network, "s", rate=100.0,
                                       times=[0.5], lengths=100.0)
        network.run(10.0)
        # Arrived at t=0.5 (start of frame [0.5,1.0)): eligible at 1.0.
        assert sink.max_delay == pytest.approx(0.5 + 0.1)


class TestBufferLimitInteraction:
    def test_drop_does_not_corrupt_scheduler_state(self):
        # A dropped packet never reaches the scheduler: the session's
        # F/K recursion must continue cleanly over the gap.
        network = make_network(LeaveInTime, capacity=1000.0)
        session, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0, 0.0, 0.0, 5.0],
            lengths=100.0)
        network.node("n1").set_buffer_limit("s", 200.0)
        network.run(20.0)
        # Packet 3 dropped; 1, 2, 4 delivered with sane delays.
        assert sink.received == 3
        assert network.node("n1").drops["s"] == 1
        assert sink.samples[-1] == pytest.approx(0.1)
