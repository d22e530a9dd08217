"""FaultInjector behaviour: link-down windows and packet loss.

All scenarios run on the tiny deterministic tandem from
``tests.conftest`` (1000 bit/s links, zero propagation, 100-bit
packets — one packet transmits in exactly 0.1 s).
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.faults import FaultInjector, FaultPlan, LinkDown, PacketLoss
from repro.sched.fcfs import FCFS
from tests.conftest import add_trace_session, make_network


def one_node_network(times, *, trace=False, scheduler=FCFS):
    network = make_network(scheduler, nodes=1, capacity=1000.0,
                           trace=trace)
    session, sink, _ = add_trace_session(
        network, "s", rate=100.0, times=list(times), lengths=100.0,
        route=["n1"])
    return network, sink


def install(network, plan):
    return FaultInjector(plan).install(network)


def armed(network):
    """Everything ``install`` may touch, to compare before and after."""
    return (network.faults,
            {name: node.faults for name, node in network.nodes.items()},
            network.sim.pending,
            sorted(network.streams._streams))


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


def test_install_refuses_a_plan_dated_before_the_clock():
    # It used to raise a bare SimulationError out of schedule_at with
    # network.faults and every node's state already set.
    network = make_network(FCFS, nodes=2, capacity=1000.0)
    add_trace_session(network, "s", rate=100.0, times=[0.0],
                      lengths=100.0, route=["n1", "n2"])
    network.run(1.0)
    before = armed(network)
    plan = FaultPlan(link_downs=[LinkDown("n2", 0.5, 2.0)])
    with pytest.raises(ConfigurationError,
                       match=r"LinkDown\(node='n2'.*before the clock"):
        install(network, plan)
    assert armed(network) == before


def test_install_refuses_a_second_injector():
    # It used to replace network.faults and the node states, leaving the
    # first plan's timers to flip orphans: all 4 packets crossed n1's
    # "down" link by t = 2 s.
    network, sink = one_node_network([0.0, 0.2, 0.4, 0.6])
    first = install(network, FaultPlan(
        link_downs=[LinkDown("n1", 0.0, 10.0)]))
    before = armed(network)
    with pytest.raises(ConfigurationError, match="already has a fault"):
        install(network, FaultPlan(
            losses=[PacketLoss("n1", 0.0, 1.0, 0.5)]))
    assert armed(network) == before and network.faults is first
    network.run(2.0)
    assert sink.received == 0


def test_states_created_only_for_referenced_nodes():
    network = make_network(FCFS, nodes=3, capacity=1000.0)
    add_trace_session(network, "s", rate=100.0, times=[0.0],
                      lengths=100.0, route=["n1", "n2", "n3"])
    injector = install(
        network, FaultPlan(link_downs=[LinkDown("n2", 1.0, 2.0)]))
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
    assert injector.outages == [("n1", 1.0, 3.0)]
    assert injector.outage_seconds("n1") == pytest.approx(2.0)


def test_open_outage_closed_by_finalize():
    network, _ = one_node_network([0.0])
    injector = install(network, FaultPlan(
        link_downs=[LinkDown("n1", 1.0, 99.0)]))
    network.run(5.0)
    assert injector.outage_seconds() == 0.0
    injector.finalize(5.0)
    assert injector.outages == [("n1", 1.0, 5.0)]


# ----------------------------------------------------------------------
# Loss
# ----------------------------------------------------------------------
def test_certain_loss_drops_at_transmitter():
    network, sink = one_node_network([0.0, 0.2, 0.4], trace=True)
    install(network, FaultPlan(
        losses=[PacketLoss("n1", 0.0, 10.0, 1.0)]))
    network.run(5.0)
    assert sink.received == 0
    state = network.node("n1").faults
    assert state.drops == {"s": 3}
    assert network.node("n1").drop_count("s") == 3
    assert network.tracer.count("fault_drop") == 3


def test_loss_outside_window_costs_nothing():
    network, sink = one_node_network([0.0, 0.2])
    injector = install(network, FaultPlan(
        losses=[PacketLoss("n1", 5.0, 6.0, 1.0)]))
    network.run(2.0)
    assert sink.received == 2
    assert injector.states["n1"].drops == {}


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
