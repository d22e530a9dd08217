"""Tests for the scheduler base-class contract."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.net.link import Link
from repro.net.node import ServerNode
from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.base import Scheduler
from repro.sched.edd import JitterEDD
from repro.sched.fcfs import FCFS
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.wfq import WFQ
from repro.sim.kernel import Simulator
from repro.sim.monitor import Tally
from tests.conftest import add_trace_session, make_network


def test_scheduler_cannot_be_shared_between_nodes():
    sim = Simulator()
    scheduler = FCFS()
    ServerNode("n1", Link(1000.0), scheduler, sim)
    with pytest.raises(SimulationError):
        ServerNode("n2", Link(1000.0), scheduler, sim)


def test_capacity_requires_binding():
    with pytest.raises(SimulationError):
        FCFS().capacity


def test_capacity_reflects_link():
    sim = Simulator()
    scheduler = FCFS()
    ServerNode("n1", Link(2500.0), scheduler, sim)
    assert scheduler.capacity == 2500.0


def test_wake_without_node_is_safe():
    FCFS()._wake_node()  # must not raise


def test_lateness_tally_starts_empty():
    lateness = FCFS().lateness
    assert lateness.count == 0
    assert lateness.maximum is None
    assert lateness.mean == 0.0 and lateness.stddev == 0.0


# The base method, Leave-in-Time's inline copy of it, and Jitter-EDD,
# which reaches the base method through ``super()``.
@pytest.mark.parametrize("discipline", [FCFS, LeaveInTime, JitterEDD])
@given(values=st.lists(st.floats(-0.1, 0.1), max_size=300))
# Equal values whose squares are subnormal: Σx² − nμ² came out one
# subnormal ulp, and σ its square root, 2.2e-162, where Welford reads 0.
@example(values=[8.312030049395126e-157] * 4)
def test_lateness_summary_matches_a_tally(discipline, values):
    """count / Σ / Σ² / running max against Welford on the same values.

    ``count`` and ``maximum`` are exact.  ``mean`` and ``stddev`` agree
    to 1e-9 of the data's magnitude where the series spreads at all
    (σ ≥ 1 % of its largest value: every lateness series does, lead
    times spread about as wide as they are long); below that Σ² − nμ²
    cancels, and all that is promised is √(n·ε) of the magnitude.
    Squares below the normal range round by up to one ulp of zero each
    rather than relatively, so σ also has an absolute floor of
    √(n·ulp(0)) ≈ 2.2e-162·√n.
    """
    scheduler = discipline()
    tally = Tally()
    session = Session("s", 1000.0, ["n1"], l_max=100.0)
    for value in values:
        packet = Packet(session, 1, 100.0, 0.0)
        packet.hop_index = 0
        packet.deadline = 0.0  # lateness = now − 0.0: the drawn value
        scheduler.on_transmit_complete(packet, value)
        tally.observe(value)

    lateness = scheduler.lateness
    assert lateness.count == tally.count
    assert lateness.maximum == tally.maximum
    scale = max(map(abs, values), default=0.0)
    assert lateness.mean == pytest.approx(tally.mean, rel=1e-9,
                                          abs=1e-9 * scale)
    spread_out = tally.stddev >= 0.01 * scale
    floor = math.sqrt(len(values) * math.ulp(0.0))
    assert lateness.stddev == pytest.approx(
        tally.stddev, rel=1e-9,
        abs=max((1e-9 if spread_out else 1e-6) * scale, floor))


def test_virtual_time_disciplines_record_no_lateness():
    # WFQ's tags are not real-time deadlines: it serves, and skips it.
    network = make_network(WFQ, capacity=1000.0)
    _, sink, _ = add_trace_session(network, "s", rate=100.0,
                                   times=[0.0, 0.1, 0.2], lengths=100.0)
    network.run(5.0)
    assert sink.received == 3
    lateness = network.node("n1").scheduler.lateness
    assert lateness.count == 0 and lateness.maximum is None


def test_a_discipline_must_say_how_many_packets_it_queues():
    """The sanitizer's conservation identity reads ``_queued`` at every
    arrival, forward and drop: a discipline without it is refused at
    construction rather than left unchecked."""
    class Silent(Scheduler):
        def on_arrival(self, packet, now):
            pass

        def next_packet(self, now):
            return None

    with pytest.raises(TypeError, match="_queued"):
        Silent()
