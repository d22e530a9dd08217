"""Unit tests for links."""

import pytest

from repro.errors import ConfigurationError
from repro.net.link import Link
from repro.sched.fcfs import FCFS
from tests.conftest import add_trace_session, make_network


def transmission_seconds(capacity: float, length: float) -> float:
    """The delay of one ``length``-bit packet through an idle node whose
    link has ``capacity`` and no propagation: its transmission time."""
    network = make_network(FCFS, capacity=capacity)
    _, sink, _ = add_trace_session(network, "s", rate=capacity,
                                   times=[0.0], lengths=length)
    network.run(1.0)
    assert sink.received == 1
    return sink.max_delay


def test_transmission_time():
    # The node clocks a packet onto its link in L / C.
    assert transmission_seconds(1000.0, 500.0) == pytest.approx(0.5)


def test_t1_packet_time_matches_paper():
    # 424 bits on a 1536 kbit/s link: about 0.276 ms.
    assert transmission_seconds(1.536e6, 424.0) == pytest.approx(
        0.000276, abs=1e-6)


def test_rejects_non_positive_capacity():
    with pytest.raises(ConfigurationError):
        Link(0.0)
    with pytest.raises(ConfigurationError):
        Link(-5.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_rejects_non_finite_capacity(value):
    # NaN fails every ordering comparison, so `capacity <= 0` alone
    # would accept it and poison every L/C term downstream.
    with pytest.raises(ConfigurationError):
        Link(value)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_rejects_non_finite_propagation(value):
    with pytest.raises(ConfigurationError):
        Link(1000.0, propagation=value)


def test_rejects_negative_propagation():
    with pytest.raises(ConfigurationError):
        Link(1000.0, propagation=-0.001)

