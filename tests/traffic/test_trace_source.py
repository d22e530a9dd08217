"""Unit tests for trace replay."""

import pytest

from repro.errors import ConfigurationError
from repro.net.session import Session
from repro.sched.fcfs import FCFS
from repro.traffic.trace_source import TraceSource
from tests.conftest import make_network


def build(times, lengths):
    network = make_network(FCFS, capacity=1e6)
    session = Session("s", rate=1000.0, route=["n1"], l_max=1000.0)
    network.add_session(session)
    source = TraceSource(network, session, times=times, lengths=lengths,
                         keep_trace=True)
    return network, source


def test_emits_at_prescribed_times():
    network, source = build([0.0, 0.5, 0.75], 100.0)
    network.run(10.0)
    assert source.trace_times == pytest.approx([0.0, 0.5, 0.75])


def test_per_packet_lengths():
    network, source = build([0.0, 1.0], [100.0, 200.0])
    network.run(10.0)
    assert source.trace_lengths == [100.0, 200.0]


def test_simultaneous_emissions_allowed():
    network, source = build([1.0, 1.0, 1.0], 50.0)
    network.run(10.0)
    assert source.trace_times == pytest.approx([1.0, 1.0, 1.0])


def test_start_delay_shifts_schedule():
    network = make_network(FCFS, capacity=1e6)
    session = Session("s", rate=1000.0, route=["n1"], l_max=100.0)
    network.add_session(session)
    source = TraceSource(network, session, times=[0.0, 1.0], lengths=100.0,
                         start_delay=2.0, keep_trace=True)
    network.run(10.0)
    assert source.trace_times == pytest.approx([2.0, 3.0])


def test_rejects_decreasing_times():
    network = make_network(FCFS)
    session = Session("s", rate=1000.0, route=["n1"], l_max=100.0)
    network.add_session(session)
    with pytest.raises(ConfigurationError):
        TraceSource(network, session, times=[1.0, 0.5], lengths=100.0)


def test_rejects_mismatched_lengths():
    network = make_network(FCFS)
    session = Session("s", rate=1000.0, route=["n1"], l_max=100.0)
    network.add_session(session)
    with pytest.raises(ConfigurationError):
        TraceSource(network, session, times=[0.0, 1.0],
                    lengths=[100.0])


def test_empty_trace_is_valid():
    # Not even the start timer: an empty trace never arms.
    network, source = build([], 100.0)
    network.run(1.0)
    assert source.emitted == 0
    assert network.sim.events_dispatched == 0
