"""Unit tests for WFQ and its GPS virtual-time clock."""

import pytest

from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.wfq import WFQ
from tests.conftest import add_trace_session, make_network


def gps(capacity=1000.0):
    """A WFQ bound to a one-node network, driven by hand below."""
    return make_network(WFQ, capacity=capacity).node("n1").scheduler


def flow(session_id, rate):
    """A session as one GPS flow: WFQ counts per Session object."""
    return Session(session_id, rate, ["n1"], l_max=1000.0)


def stamp(wfq, session, length, now=0.0):
    """Hand ``wfq`` one packet of ``session`` arriving at ``now``; its
    finish tag."""
    packet = Packet(session, 1, length, now)
    wfq.on_arrival(packet, now)
    return packet.deadline


class TestGpsVirtualTime:
    def test_single_session_virtual_time_runs_at_link_speed(self):
        # One backlogged session: dV/dt = C / r = 10.
        wfq = gps()
        stamp(wfq, flow("a", 100.0), 1000.0)  # finish tag 10 virtual units
        wfq._advance(0.5)
        assert wfq.virtual_time == pytest.approx(5.0)

    def test_two_equal_sessions_share(self):
        wfq = gps()
        stamp(wfq, flow("a", 500.0), 500.0)   # tag 1.0
        stamp(wfq, flow("b", 500.0), 500.0)   # tag 1.0
        wfq._advance(0.5)
        # Both backlogged: dV/dt = 1000/1000 = 1.
        assert wfq.virtual_time == pytest.approx(0.5)

    def test_departure_shrinks_active_set(self):
        wfq = gps()
        a, b = flow("a", 500.0), flow("b", 500.0)
        stamp(wfq, a, 250.0)   # tag 0.5, departs GPS at t=0.5
        stamp(wfq, b, 1000.0)  # tag 2.0
        wfq._advance(1.2)
        # Until t=0.5 both active (dV/dt=1): V=0.5. After, only b
        # (dV/dt = 1000/500 = 2): V = 0.5 + 0.7*2 = 1.9.
        assert wfq.virtual_time == pytest.approx(1.9)
        assert list(wfq._gps_counts) == [b]  # a count leaves at zero

    def test_virtual_time_freezes_when_gps_empties(self):
        wfq = gps()
        stamp(wfq, flow("a", 500.0), 250.0)   # tag 0.5, departs GPS at t=0.25
        wfq._advance(10.0)
        # After the system empties, V holds at the last finish tag.
        assert wfq.virtual_time == pytest.approx(0.5)
        assert wfq._gps_counts == {} and wfq._active_rate == 0.0

    def test_stamp_uses_max_of_v_and_previous_tag(self):
        wfq = gps()
        a = flow("a", 500.0)
        first = stamp(wfq, a, 500.0)
        second = stamp(wfq, a, 500.0)
        assert second == pytest.approx(first + 1.0)


class TestWFQScheduling:
    def test_interleaves_proportionally(self):
        # Heavy (r=750) and light (r=250) sessions, both continuously
        # backlogged: over time, service is ~3:1.
        network = make_network(WFQ, capacity=1000.0, trace=True)
        times = [0.0] * 40
        add_trace_session(network, "heavy", rate=750.0, times=times,
                          lengths=100.0)
        add_trace_session(network, "light", rate=250.0, times=times,
                          lengths=100.0)
        network.run(3.0)  # ~30 transmissions
        starts = [r.session for r in
                  network.tracer.filter("tx_start", node="n1")]
        heavy_share = starts[:28].count("heavy") / 28
        assert heavy_share == pytest.approx(0.75, abs=0.08)

    def test_isolation_from_burst(self):
        # Unlike FCFS, a burst on one session does not starve another.
        network = make_network(WFQ, capacity=1000.0)
        add_trace_session(network, "burst", rate=500.0,
                          times=[0.0] * 20, lengths=100.0)
        _, sink, _ = add_trace_session(network, "steady", rate=500.0,
                                       times=[0.01], lengths=100.0)
        network.run(10.0)
        # GPS would finish the steady packet by ~0.21 s; WFQ adds at
        # most one packet time.
        assert sink.max_delay < 0.4

    def test_single_session_gets_full_link(self):
        network = make_network(WFQ, capacity=1000.0)
        _, sink, _ = add_trace_session(network, "s", rate=100.0,
                                       times=[0.0, 0.0], lengths=100.0)
        network.run(10.0)
        assert sink.samples == pytest.approx([0.1, 0.2])

    def test_pgps_delay_close_to_gps(self):
        # Parekh-Gallager: WFQ finishes every packet no later than GPS
        # plus one maximum packet time. Check against hand GPS values
        # for a two-session scenario.
        network = make_network(WFQ, capacity=1000.0, trace=True)
        add_trace_session(network, "a", rate=500.0, times=[0.0, 0.0],
                          lengths=100.0)
        add_trace_session(network, "b", rate=500.0, times=[0.0],
                          lengths=100.0)
        network.run(10.0)
        # GPS finish times: a1 and b1 at 0.2, a2 at 0.3.
        ends = {(r.session, r.packet): r.time
                for r in network.tracer.filter("tx_end", node="n1")}
        l_max_over_c = 0.1
        assert ends[("a", 1)] <= 0.2 + l_max_over_c + 1e-9
        assert ends[("b", 1)] <= 0.2 + l_max_over_c + 1e-9
        assert ends[("a", 2)] <= 0.3 + l_max_over_c + 1e-9
