"""Unit tests for buffer-occupancy reduction."""

import pytest

from repro.analysis.buffers import buffer_distribution
from repro.errors import ConfigurationError
from repro.net.session import Session
from repro.sched.fcfs import FCFS
from repro.traffic.trace_source import TraceSource
from tests.conftest import make_network


def run_monitored(times):
    network = make_network(FCFS, capacity=1000.0)
    session = Session("s", rate=100.0, route=["n1"], l_max=100.0,
                      monitor_buffer=True)
    network.add_session(session)
    TraceSource(network, session, times=times, lengths=100.0)
    network.run(20.0)
    return network


def test_distribution_fields():
    network = run_monitored([0.0, 0.05, 2.0])
    dist = buffer_distribution(network.node("n1"), "s")
    assert dist.samples == 3
    assert dist.max_bits == 200.0
    assert dist.max_packets(100.0) == 2.0
    assert dist.node == "n1"


def test_ccdf_is_staircase():
    network = run_monitored([0.0, 0.05, 2.0])
    dist = buffer_distribution(network.node("n1"), "s")
    xs, probs = dist.ccdf_bits
    assert list(xs) == [100.0, 100.0, 200.0]
    assert probs[-1] == 0.0


def test_unmonitored_session_rejected():
    network = make_network(FCFS, capacity=1000.0)
    session = Session("s", rate=100.0, route=["n1"], l_max=100.0)
    network.add_session(session)
    TraceSource(network, session, times=[0.0], lengths=100.0)
    network.run(1.0)
    with pytest.raises(ConfigurationError):
        buffer_distribution(network.node("n1"), "s")


def test_no_samples_is_a_zero_sample_row():
    """A monitored session with no arrival yet reduces to an empty
    distribution, not an error."""
    network = make_network(FCFS, capacity=1000.0)
    session = Session("s", rate=100.0, route=["n1"], l_max=100.0,
                      monitor_buffer=True)
    network.add_session(session)
    network.run(1.0)
    dist = buffer_distribution(network.node("n1"), "s")
    assert (dist.samples, dist.max_bits, dist.mean_bits) == (0, 0.0, 0.0)
    assert [len(part) for part in dist.ccdf_bits] == [0, 0]
