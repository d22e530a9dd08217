"""Hand-computed eq.-2 cases, on ``LeaveInTime`` and on the oracle.

VirtualClock is Leave-in-Time with its default ``d = L/r`` policy; each
case runs both the src discipline and the eq.-2 oracle of
``tests.conftest`` against the same hand-computed numbers.
"""

import pytest

from repro.sched.leave_in_time import LeaveInTime
from tests.conftest import VirtualClockOracle, add_trace_session, make_network

#: The discipline under test and the oracle it must agree with.
FACTORIES = (LeaveInTime, VirtualClockOracle)


def test_deadline_recursion():
    # F1 = 0 + 1; F2 = max(0.05, 1) + 1; F3 = max(0.5, 2) + 1.
    for factory in FACTORIES:
        network = make_network(factory, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0, 0.05, 0.5],
            lengths=100.0)
        network.run(10.0)
        assert [p.deadline for p in sink.packets] == pytest.approx(
            [1.0, 2.0, 3.0])


def test_idle_reset():
    for factory in FACTORIES:
        network = make_network(factory, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=100.0, times=[0.0, 7.5], lengths=100.0)
        network.run(20.0)
        assert [p.deadline for p in sink.packets] == pytest.approx(
            [1.0, 8.5])


def test_work_conserving():
    for factory in FACTORIES:
        network = make_network(factory, capacity=1000.0)
        _, sink, _ = add_trace_session(
            network, "s", rate=1.0, times=[0.0], lengths=100.0)
        network.run(300.0)
        assert sink.max_delay == pytest.approx(0.1)


def test_per_session_state_is_independent():
    for factory in FACTORIES:
        network = make_network(factory, capacity=1000.0)
        _, sink_a, _ = add_trace_session(
            network, "a", rate=100.0, times=[0.0, 0.0], lengths=100.0)
        _, sink_b, _ = add_trace_session(
            network, "b", rate=100.0, times=[0.0], lengths=100.0)
        network.run(10.0)
        # Session b's deadline is unaffected by a's backlog.
        assert [p.deadline for p in sink_b.packets] == pytest.approx([1.0])
        assert [p.deadline for p in sink_a.packets] == pytest.approx(
            [1.0, 2.0])


def test_deadline_order_served_first():
    for factory in FACTORIES:
        network = make_network(factory, capacity=1000.0, trace=True)
        add_trace_session(network, "filler", rate=500.0, times=[0.0],
                          lengths=100.0)
        add_trace_session(network, "slow", rate=100.0, times=[0.01],
                          lengths=100.0)
        add_trace_session(network, "fast", rate=1000.0, times=[0.02],
                          lengths=100.0)
        network.run(10.0)
        starts = [r.session for r in
                  network.tracer.filter("tx_start", node="n1")]
        assert starts == ["filler", "fast", "slow"]


def test_backlog_property():
    for factory in FACTORIES:
        network = make_network(factory, capacity=1.0)
        add_trace_session(network, "s", rate=1.0, times=[0.0, 0.0, 0.0],
                          lengths=10.0)
        network.run(5.0)  # first packet still transmitting (10 s)
        assert network.node("n1").scheduler.backlog == 2
