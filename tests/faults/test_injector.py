"""FaultInjector behaviour: link, loss/corruption, and node faults.

All scenarios run on the tiny deterministic tandem from
``tests.conftest`` (1000 bit/s links, zero propagation, 100-bit
packets — one packet transmits in exactly 0.1 s).
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkDown,
    NodePause,
    NodeRestart,
    PacketCorruption,
    PacketLoss,
)
from repro.sched.fcfs import FCFS
from repro.sched.leave_in_time import LeaveInTime
from tests.conftest import add_trace_session, make_network


def one_node_network(times, *, trace=False, scheduler=FCFS):
    network = make_network(scheduler, nodes=1, capacity=1000.0,
                           trace=trace)
    session, sink, _ = add_trace_session(
        network, "s", rate=100.0, times=list(times), lengths=100.0,
        route=["n1"])
    return network, sink


def install(network, plan, **kwargs):
    return FaultInjector(plan, **kwargs).install(network)


# ----------------------------------------------------------------------
# Installation contract
# ----------------------------------------------------------------------
def test_install_rejects_unknown_nodes():
    network, _ = one_node_network([0.0])
    plan = FaultPlan(link_downs=[LinkDown("ghost", 1.0, 2.0)])
    with pytest.raises(ConfigurationError, match="unknown nodes"):
        install(network, plan)


def test_install_twice_rejected():
    network, _ = one_node_network([0.0])
    injector = install(network, FaultPlan())
    with pytest.raises(SimulationError, match="twice"):
        injector.install(network)


def test_session_outage_requires_factory():
    from repro.faults import SessionOutage
    network, _ = one_node_network([0.0])
    plan = FaultPlan(session_outages=[SessionOutage("s", 1.0, 2.0)])
    with pytest.raises(ConfigurationError, match="session_factory"):
        install(network, plan)


def test_states_created_only_for_referenced_nodes():
    network = make_network(FCFS, nodes=3, capacity=1000.0)
    add_trace_session(network, "s", rate=100.0, times=[0.0],
                      lengths=100.0, route=["n1", "n2", "n3"])
    injector = install(
        network, FaultPlan(node_pauses=[NodePause("n2", 1.0, 2.0)]))
    assert set(injector.states) == {"n2"}
    assert network.node("n1").faults is None
    assert network.node("n2").faults is injector.states["n2"]
    assert network.faults is injector


# ----------------------------------------------------------------------
# Link faults
# ----------------------------------------------------------------------
def test_link_down_blocks_transmission_until_recovery():
    network, sink = one_node_network([0.5], trace=True)
    install(network, FaultPlan(
        link_downs=[LinkDown("n1", 0.2, 2.0)]))
    network.run(5.0)
    # Arrived at 0.5 (link down), served at recovery 2.0, +0.1 tx.
    assert sink.received == 1
    assert sink.max_delay == pytest.approx(2.1 - 0.5)
    cats = [r.category for r in network.tracer.records]
    assert "link_down" in cats and "link_up" in cats


def test_in_flight_transmission_completes_through_link_down():
    # Transmission starts at 0.0 and runs to 0.1; the link drops at
    # 0.05 — the last bit is already being clocked, so it completes.
    network, sink = one_node_network([0.0])
    install(network, FaultPlan(
        link_downs=[LinkDown("n1", 0.05, 1.0)]))
    network.run(5.0)
    assert sink.received == 1
    assert sink.max_delay == pytest.approx(0.1)


def test_link_outage_accounted():
    network, _ = one_node_network([0.0])
    injector = install(network, FaultPlan(
        link_downs=[LinkDown("n1", 1.0, 3.0)]))
    network.run(5.0)
    assert injector.outages == [("link", "n1", 1.0, 3.0)]
    assert injector.outage_seconds("link", "n1") == pytest.approx(2.0)


def test_open_outage_closed_by_finalize():
    network, _ = one_node_network([0.0])
    injector = install(network, FaultPlan(
        link_downs=[LinkDown("n1", 1.0, 99.0)]))
    network.run(5.0)
    assert injector.outage_seconds() == 0.0
    injector.finalize(5.0)
    assert injector.outages == [("link", "n1", 1.0, 5.0)]


# ----------------------------------------------------------------------
# Loss and corruption
# ----------------------------------------------------------------------
def test_certain_loss_drops_at_transmitter():
    network, sink = one_node_network([0.0, 0.2, 0.4], trace=True)
    install(network, FaultPlan(
        losses=[PacketLoss("n1", 0.0, 10.0, 1.0)]))
    network.run(5.0)
    assert sink.received == 0
    state = network.node("n1").faults
    assert state.drops == {"loss": {"s": 3}}
    assert state.dropped("loss") == 3
    assert network.node("n1").drop_count("s") == 3
    reasons = {r.detail.get("reason")
               for r in network.tracer.filter("fault_drop")}
    assert reasons == {"loss"}


def test_certain_corruption_drops_at_next_hop():
    network = make_network(FCFS, nodes=2, capacity=1000.0, trace=True)
    _, sink, _ = add_trace_session(
        network, "s", rate=100.0, times=[0.0], lengths=100.0,
        route=["n1", "n2"])
    install(network, FaultPlan(
        corruptions=[PacketCorruption("n1", 0.0, 10.0, 1.0)]))
    network.run(5.0)
    assert sink.received == 0
    # Accounting lands at the transmitting node (n1's link corrupted);
    # the next hop never sees the packet at all.
    assert network.node("n1").faults.drops == {"corrupt": {"s": 1}}
    assert "s" not in network.node("n2").drops
    assert network.node("n2").packets_served == 0


def test_corruption_on_last_hop_still_counted():
    network, sink = one_node_network([0.0])
    install(network, FaultPlan(
        corruptions=[PacketCorruption("n1", 0.0, 10.0, 1.0)]))
    network.run(5.0)
    assert sink.received == 0
    assert network.node("n1").faults.dropped("corrupt") == 1


def test_loss_outside_window_costs_nothing():
    network, sink = one_node_network([0.0, 0.2])
    injector = install(network, FaultPlan(
        losses=[PacketLoss("n1", 5.0, 6.0, 1.0)]))
    network.run(2.0)
    assert sink.received == 2
    assert injector.states["n1"].dropped() == 0


def test_partial_loss_is_seed_deterministic():
    def run_once():
        network = make_network(FCFS, nodes=1, capacity=100_000.0,
                               seed=7)
        _, sink, _ = add_trace_session(
            network, "s", rate=10_000.0,
            times=[i * 0.01 for i in range(200)], lengths=100.0,
            route=["n1"])
        install(network, FaultPlan(
            losses=[PacketLoss("n1", 0.0, 10.0, 0.3)]))
        network.run(5.0)
        return sink.received

    first, second = run_once(), run_once()
    assert first == second
    assert 0 < first < 200


# ----------------------------------------------------------------------
# Node faults
# ----------------------------------------------------------------------
def test_pause_and_resume():
    network, sink = one_node_network([0.5], trace=True)
    injector = install(network, FaultPlan(
        node_pauses=[NodePause("n1", 0.2, 1.5)]))
    network.run(5.0)
    assert sink.received == 1
    assert sink.max_delay == pytest.approx(1.6 - 0.5)
    assert injector.outage_seconds("pause", "n1") == pytest.approx(1.3)


def test_restart_flushes_queued_packets():
    # Three packets arrive back-to-back; the first is mid-transmission
    # when the restart fires at 0.05.  A crash loses volatile state
    # *including the packet on the link*: all three are flush-dropped —
    # the in-flight one via abort_transmission, the queued two via the
    # scheduler flush.
    network, sink = one_node_network([0.0, 0.0, 0.0], trace=True)
    injector = install(network, FaultPlan(
        node_restarts=[NodeRestart("n1", 0.05)]))
    network.run(5.0)
    assert sink.received == 0
    state = injector.states["n1"]
    assert state.drops == {"flush": {"s": 3}}
    assert state.restarts == 1
    node = network.node("n1")
    # Buffer occupancy accounting released the flushed bits, and the tx
    # bookkeeping was reset (no phantom in-flight transmission).
    assert node.buffer_bits["s"] == pytest.approx(0.0)
    assert node.transmitting is None
    assert network.tracer.count("node_restart") == 1


def test_restart_aborts_inflight_tx_bookkeeping():
    # The aborted transmission accrues only its elapsed busy time, and
    # utilization() never pro-rates a transmission that will not
    # complete: after the restart the node is idle and busy_time stays
    # frozen at the crash instant's accrual.
    network, sink = one_node_network([0.0], trace=True)
    install(network, FaultPlan(node_restarts=[NodeRestart("n1", 0.05)]))
    network.run(5.0)
    node = network.node("n1")
    assert sink.received == 0
    assert node.transmitting is None
    # tx started at 0.0, crashed at 0.05 -> 0.05 s of real link time.
    assert node.busy_time == pytest.approx(0.05)
    assert node.utilization(5.0) == pytest.approx(0.05 / 5.0)
    # The cancelled completion event must never fire (it would raise
    # SimulationError: completion for a packet not on the link).
    assert network.tracer.count("tx_end") == 0
    assert network.tracer.count("fault_drop") == 1


def test_restart_flushes_lit_regulator_holds():
    # Jitter-controlled LiT holds packets at the downstream node; a
    # restart there must cancel the holds without leaking _held.
    network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
    add_trace_session(network, "s", rate=100.0, times=[0.0],
                      lengths=100.0, route=["n1", "n2"],
                      jitter_control=True)
    injector = install(network, FaultPlan(
        node_restarts=[NodeRestart("n2", 0.15)]))
    network.run(5.0)
    scheduler = network.node("n2").scheduler
    assert scheduler.held == 0
    assert scheduler.backlog == 0
    assert injector.states["n2"].dropped("flush") == 1


# ----------------------------------------------------------------------
# Zero-cost-when-idle
# ----------------------------------------------------------------------
def test_empty_plan_schedules_no_events():
    network, sink = one_node_network([0.0])
    before = network.sim.pending
    install(network, FaultPlan())
    assert network.sim.pending == before
    network.run(1.0)
    assert sink.received == 1


def test_no_injector_means_no_fault_attributes():
    network, sink = one_node_network([0.0])
    assert network.faults is None
    assert network.node("n1").faults is None
    network.run(1.0)
    assert sink.received == 1
