"""Tests for dynamic session teardown."""

from math import inf

import pytest

from repro.errors import ConfigurationError
from repro.net.session import Session
from repro.sched.edd import DelayEDD, JitterEDD
from repro.sched.leave_in_time import LeaveInTime
from repro.traffic.trace_source import TraceSource
from tests.conftest import RecordingSink, add_trace_session, make_network


def assert_row_reset(network, node_name, slot):
    """``s`` left the table; its ``slot`` reads fill values at the LiT."""
    assert slot in network.session_table._free
    scheduler = network.node(node_name).scheduler
    assert scheduler._k_prev[slot] == -inf
    assert scheduler._d_slope[slot] != scheduler._d_slope[slot]  # NaN
    assert not scheduler._holds


def drained_network():
    network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
    session, sink, source = add_trace_session(
        network, "s", rate=100.0, times=[0.0, 0.1], lengths=100.0,
        route=["n1", "n2"])
    network.run(10.0)
    return network, session, sink


def test_remove_after_drain_clears_state():
    network, session, sink = drained_network()
    slot = session.slot
    assert network.node("n1").scheduler._k_prev[slot] > 0.0
    network.remove_session("s")
    assert "s" not in network.sessions
    assert session.slot == -1
    assert_row_reset(network, "n1", slot)
    assert "s" not in network.node("n1").buffer_bits
    # The network lets go of the sink; the caller still holds it.
    assert session.sink is None and sink.received == 2


def test_remove_discarding_sink():
    network, session, sink = drained_network()
    network.remove_session("s")
    with pytest.raises(KeyError):
        network.sink("s")
    assert "s" not in network.sinks and len(network.sinks) == 0


def test_remove_unknown_session_rejected():
    network = make_network(LeaveInTime)
    with pytest.raises(ConfigurationError):
        network.remove_session("ghost")


def test_remove_with_in_flight_packets_defers_cleanup():
    """Mid-flight removal drains, then forgets (drain-then-forget)."""
    network = make_network(LeaveInTime, capacity=1.0)
    session, sink, _ = add_trace_session(network, "s", rate=1.0,
                                         times=[0.0], lengths=10.0)
    network.run(5.0)  # still transmitting (10 s long)
    slot = session.slot
    network.remove_session("s")
    # Gone from the routing table at once; node state lingers while
    # the packet is still on the link.
    assert "s" not in network.sessions
    assert network.reserved_rate("n1") == 0.0
    assert "s" in network._draining
    network.run(20.0)
    # Drained: packet delivered, per-node state cleared.
    assert sink.received == 1
    assert "s" not in network._draining
    assert "s" not in network.node("n1").buffer_bits
    assert_row_reset(network, "n1", slot)


def test_remove_mid_flight_discarding_sink():
    network = make_network(LeaveInTime, capacity=1.0)
    add_trace_session(network, "s", rate=1.0, times=[0.0], lengths=10.0)
    network.run(5.0)
    network.remove_session("s")
    # Sink must survive until the drain completes, then vanish.
    assert "s" in network.sinks
    network.run(20.0)
    assert "s" not in network.sinks
    assert "s" not in network._draining


def test_remove_while_packet_held_by_regulator():
    """Teardown while the regulator holds packets must not wedge them."""
    network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
    # Jitter control maximizes downstream holding at n2.
    session, sink, _ = add_trace_session(
        network, "s", rate=10.0, times=[0.0, 0.01], lengths=100.0,
        route=["n1", "n2"], jitter_control=True)
    # Run just long enough for packets to reach n2's regulator.
    network.run(0.3)
    slot = session.slot
    network.remove_session("s")
    network.run(60.0)
    assert sink.received == 2
    assert "s" not in network._draining
    assert_row_reset(network, "n2", slot)


def test_inject_after_removal_rejected():
    """A source left running past removal fails loudly, not via KeyError."""
    from repro.errors import SimulationError
    network, session, sink = drained_network()
    network.remove_session("s")
    with pytest.raises(SimulationError, match="stop the source"):
        network.inject(session, 100.0)


def test_readd_while_draining_rejected():
    network = make_network(LeaveInTime, capacity=1.0)
    session, _, _ = add_trace_session(
        network, "s", rate=1.0, times=[0.0], lengths=10.0)
    network.run(5.0)
    network.remove_session("s")
    from repro.net.session import Session
    clone = Session("s", rate=1.0, route=["n1"], l_max=10.0)
    with pytest.raises(ConfigurationError):
        network.add_session(clone)


def test_forget_session_flushes_held_packets():
    """Direct forget_session releases regulator holds immediately."""
    network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
    add_trace_session(network, "s", rate=10.0, times=[0.0, 0.01],
                      lengths=100.0, route=["n1", "n2"],
                      jitter_control=True)
    network.run(0.3)
    scheduler = network.node("n2").scheduler
    held_before = scheduler.held
    scheduler.forget_session("s")
    # Holds flushed: the counter drops to zero and packets are queued
    # as immediately eligible rather than stranded.
    assert scheduler.held == 0
    if held_before:
        network.run(60.0)
        assert network.sink("s").received == 2


def test_session_id_reusable_after_removal():
    network, session, sink = drained_network()
    network.remove_session("s")
    _, sink2, _ = add_trace_session(
        network, "s", rate=100.0, times=[], lengths=100.0,
        route=["n1", "n2"])
    assert network.sink("s") is sink2


def test_reserved_rate_drops_after_removal():
    network, session, sink = drained_network()
    assert network.reserved_rate("n1") == 100.0
    network.remove_session("s")
    assert network.reserved_rate("n1") == 0.0


class TestChurnFaultOverlap:
    """remove_session racing a link outage (drain-then-forget must
    neither wedge the drain nor leak per-node state)."""

    def _link_down_network(self, times, down_at, up_at):
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, LinkDown
        network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
        session, _, _ = add_trace_session(
            network, "s", rate=100.0, times=times, lengths=100.0,
            route=["n1", "n2"])
        plan = FaultPlan(link_downs=(LinkDown("n1", down_at, up_at),))
        FaultInjector(plan).install(network)
        return network, session, session.sink

    def test_remove_while_link_down_drains_after_link_up(self):
        # The link goes down mid-first-transmission; removal happens
        # while the second packet is stuck behind it.
        network, session, sink = self._link_down_network([0.0, 0.1],
                                                         0.05, 2.0)
        network.run(0.2)
        slot = session.slot
        network.remove_session("s")
        assert "s" in network._draining
        network.run(5.0)
        assert sink.received == 2
        assert "s" not in network._draining
        assert "s" not in network.node("n1").buffer_bits
        assert_row_reset(network, "n1", slot)

    def test_link_down_starting_mid_drain_only_defers_it(self):
        # Removal happens first (packet 2 queued behind the in-flight
        # transmission); the link then goes down before that
        # transmission completes, so the queued packet is stuck until
        # the link comes back.
        network, _, sink = self._link_down_network([0.0, 0.01], 0.08, 2.0)
        network.run(0.05)
        network.remove_session("s")
        network.run(1.0)         # the outage holds the drain open
        assert "s" in network._draining
        network.run(5.0)
        assert sink.received == 2
        assert "s" not in network._draining


class TestForgetAcrossDisciplines:
    def _drain_and_remove(self, factory):
        network = make_network(factory, capacity=1000.0)
        add_trace_session(network, "s", rate=100.0, times=[0.0],
                          lengths=100.0)
        add_trace_session(network, "other", rate=100.0, times=[0.0],
                          lengths=100.0)
        network.run(10.0)
        network.remove_session("s")
        return network

    def test_wfq_forgets_drained_session(self):
        from repro.sched.wfq import WFQ
        network = self._drain_and_remove(WFQ)
        scheduler = network.node("n1").scheduler
        assert "s" not in scheduler._last_finish
        assert "other" in scheduler._last_finish

    def test_wfq_forgets_session_pgps_drained_ahead_of_gps(self):
        # PGPS sends s's one packet before GPS would finish it (t = 1.0):
        # teardown finds GPS still holding s, and the next arrival past
        # that instant must still let it go.
        from repro.sched.wfq import WFQ
        network = make_network(WFQ, capacity=1000.0)
        add_trace_session(network, "other", rate=900.0,
                          times=[0.0] * 10 + [5.0], lengths=100.0)
        add_trace_session(network, "s", rate=100.0, times=[0.0],
                          lengths=100.0)
        network.run(0.95)
        scheduler = network.node("n1").scheduler
        assert network.sink("s").received == 1
        assert [flow.id for flow in scheduler._gps_counts] == ["other", "s"]
        network.remove_session("s")
        network.run(10.0)
        assert network.sink("other").received == 11
        assert "s" not in scheduler._last_finish
        assert [flow.id for flow in scheduler._gps_counts] == ["other"]

    def test_wfq_readmitted_session_is_a_gps_flow_of_its_own(self):
        # b leaves with its one packet still in GPS and comes back at
        # half the rate: while both b flows are GPS-backlogged each
        # counts its own rate, and once GPS drains nothing is left.
        from repro.sched.wfq import WFQ
        network = make_network(WFQ, capacity=1000.0)
        # b first: its packet finds the link idle and leaves by 0.1 s,
        # while GPS holds it until V reaches its tag at t = 1.0.
        add_trace_session(network, "b", rate=100.0, times=[0.0],
                          lengths=100.0)
        add_trace_session(network, "a", rate=900.0, times=[0.0] * 9,
                          lengths=100.0)
        network.run(0.15)
        assert network.sink("b").received == 1
        network.remove_session("b")
        # Its source starts with the next run, at 0.15 s: it sends at 0.2.
        add_trace_session(network, "b", rate=50.0, times=[0.05],
                          lengths=100.0)
        network.run(0.25)
        network.node("n1").settle()  # the busy node parked b's arrival
        scheduler = network.node("n1").scheduler
        assert scheduler._active_rate == 1050.0
        network.run(10.0)
        scheduler._advance(10.0)
        assert scheduler._gps_counts == {}
        assert scheduler._active_rate == 0.0

    def test_hrr_forget_frees_bandwidth(self):
        from repro.sched.hrr import HierarchicalRoundRobin
        network = self._drain_and_remove(
            lambda: HierarchicalRoundRobin(frame=1.0))
        scheduler = network.node("n1").scheduler
        assert "s" not in scheduler._queues
        # Bandwidth share released (two sessions of l_max quota = 100
        # bits per 1 s frame each; one remains).
        assert scheduler._reserved == 100.0

    def test_rcsp_forget(self):
        from repro.sched.rcsp import RCSP
        network = self._drain_and_remove(lambda: RCSP([1.0]))
        assert "s" not in network.node("n1").scheduler._last_eligible

    def test_rcsp_readmission_gets_its_own_spacing(self):
        # The default x_min = l_max/rate is the new session's, not the
        # old one's, and the configuration dict does not grow.
        from repro.sched.rcsp import RCSP
        network = make_network(lambda: RCSP([1.0]), capacity=1000.0)
        for rate in (100.0, 1000.0):  # x_min 1.0 s, then 0.1 s
            _, sink, _ = add_trace_session(network, "s", rate=rate,
                                           times=[0.0, 0.0], lengths=100.0)
            network.run(network.sim.now + 10.0)
            network.remove_session("s")
        first, second = (p.eligible_time for p in sink.packets)
        assert second - first == pytest.approx(0.1)
        assert network.node("n1").scheduler.x_min == {}

    @pytest.mark.parametrize("discipline", [DelayEDD, JitterEDD])
    def test_edd_readmission_keeps_configured_bound(self, discipline):
        network = self._drain_and_remove(
            lambda: discipline(local_delays={"s": 0.5}))
        _, sink, _ = add_trace_session(network, "s", rate=100.0,
                                       times=[0.0], lengths=100.0)
        network.run(20.0)
        packet = sink.packets[-1]
        assert packet.deadline - packet.arrival_time == pytest.approx(0.5)


def _check_sinks(network, ids, waiting=()):
    """``network.sinks`` maps exactly ``ids``, each to the sink its
    packets reach (``waiting`` ones have not delivered yet), and
    ``network.sink`` agrees with it."""
    sinks = dict(network.sinks)
    assert sorted(sinks) == sorted(ids) and len(network.sinks) == len(ids)
    for session_id, sink in sinks.items():
        assert network.sink(session_id) is sink
        assert all(sinks[packet.session.id] is sink
                   for packet in sink.packets)
        delivered = {packet.session.id for packet in sink.packets}
        assert session_id in delivered or session_id in waiting
    return sinks


def test_sinks_maps_every_id_to_the_sink_it_delivers_to():
    """Shared and own sinks, a draining session, a removed one and a
    re-registered id, all read through ``network.sinks``."""
    network = make_network(LeaveInTime, capacity=10.0)  # 1 s a packet
    shared = RecordingSink("shared", keep_samples=False)
    pair = [Session(f"a{index}", rate=1.0, route=["n1"], l_max=10.0)
            for index in (1, 2)]
    network.add_sessions(pair, sink=shared)
    for session in pair:
        TraceSource(network, session, times=[0.0], lengths=10.0)
    for session_id in ("own", "gone"):
        add_trace_session(network, session_id, rate=1.0, times=[0.0],
                          lengths=10.0)
    network.run(6.0)
    old = network.sink("gone")
    network.remove_session("gone")
    sinks = _check_sinks(network, ["a1", "a2", "own"])
    assert sinks["a1"] is sinks["a2"] is shared
    assert "gone" not in network.sinks and old.received == 1

    # Two 1 s packets from t = 6; removed at 6.5, it drains.
    _, draining, _ = add_trace_session(network, "draining", rate=1.0,
                                       times=[0.0, 0.0], lengths=10.0)
    network.run(6.5)
    network.remove_session("draining")
    assert "draining" in network._draining
    _check_sinks(network, ["a1", "a2", "own", "draining"],
                 waiting=["draining"])

    # The id registered again: it has a new sink of its own.
    _, new, _ = add_trace_session(network, "gone", rate=1.0,
                                  times=[0.0], lengths=10.0)
    network.run(20.0)
    assert "draining" not in network._draining
    sinks = _check_sinks(network, ["a1", "a2", "own", "gone"])
    assert sinks["gone"] is new is not old
    assert shared.received == 2 and draining.received == 2


def test_views_list_live_and_draining_sessions_in_slot_order():
    """A node's views walk the network's live and draining sessions
    routed through it, by slot — not by registration order."""
    network = make_network(LeaveInTime, nodes=2, capacity=1.0)

    def register(session_id, route, monitor=False):
        session = Session(session_id, rate=0.01, route=route, l_max=10.0,
                          monitor_buffer=monitor)
        network.add_session(session)
        return session

    register("a", ["n1", "n2"])
    register("b", ["n2"], monitor=True)
    register("c", ["n1"], monitor=True)
    _, _, source = add_trace_session(network, "f", rate=0.01,
                                     times=[0.0], lengths=10.0)
    network.remove_session("a")  # drained: its slot 0 is free
    assert register("e", ["n1", "n2"], monitor=True).slot == 0
    network.run(5.0)  # f's 10 s packet is on n1's link
    source.stop()
    network.remove_session("f")
    assert "f" in network._draining
    n1, n2 = network.node("n1"), network.node("n2")
    # Registered b, c, f, e; by slot e 0, b 1, c 2, f 3.
    assert list(n1.buffer_bits) == list(n1.buffer_peak) == ["e", "c", "f"]
    assert list(n2.buffer_bits) == list(n2.buffer_peak) == ["e", "b", "f"]
    assert list(n1.buffer_samples) == ["e", "c"]
    assert list(n2.buffer_samples) == ["e", "b"]
    assert n1.buffer_bits["f"] == 10.0
    network.run(30.0)  # f reaches its sink and finalizes
    assert list(n1.buffer_bits) == ["e", "c"]
    assert list(n2.buffer_bits) == ["e", "b"]
