"""Leave-in-Time's special case IS VirtualClock — checked, not assumed.

The paper: with admission control procedure 1, one class, ε = 0 and no
jitter control, d = L/r and Leave-in-Time reduces to VirtualClock. We
run ``LeaveInTime`` and the eq.-2 oracle (``tests.conftest``) on
identical stochastic traffic (same seeds) and require identical
per-packet delays, and deadlines — on the paper-like
fixed scenario below and on hypothesis-drawn ones (node count, seed,
per-session rates, overlapping sub-routes, variable packet lengths:
with one fixed ``L`` an affine ``d = slope·L + offset`` that merely
passes through ``L/r`` at that length would go unnoticed).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.session import Session
from repro.sched.leave_in_time import LeaveInTime
from repro.units import ms
from tests.conftest import (RecordingSink, UniformLengthOnOff,
                            UniformLengthPoisson, VirtualClockOracle,
                            make_network)

L_MAX = 424.0

#: ``(nodes, seed, sessions)``; a session is ``(kind, rate, first hop,
#: last hop, l_min / l_max)``.  Three ON-OFF sessions and a Poisson one
#: over the whole tandem, fixed 424-bit packets.
FIXED = (3, 123, [("onoff", 32_000.0, 1, 3, 1.0)] * 3
         + [("poisson", 64_000.0, 1, 3, 1.0)])


@st.composite
def scenarios(draw):
    nodes = draw(st.integers(1, 5))
    hop = st.integers(1, nodes)
    sessions = draw(st.lists(
        st.tuples(st.sampled_from(["onoff", "poisson"]),
                  st.floats(8_000.0, 128_000.0),
                  hop, hop,  # route ends, in either order
                  st.floats(0.05, 1.0)),
        min_size=2, max_size=5))
    return nodes, draw(st.integers(0, 2 ** 16)), sessions


def build(scheduler_factory, scenario=FIXED, duration=30.0):
    """Run ``scenario`` under one discipline; sinks by session id."""
    nodes, seed, sessions = scenario
    network = make_network(scheduler_factory, nodes=nodes,
                           capacity=200_000.0, propagation=1e-3,
                           seed=seed)
    sinks = {}
    for index, (kind, rate, end_a, end_b, l_min_share) in enumerate(
            sessions):
        first, last = sorted((end_a, end_b))
        name = f"{kind}{index}"
        l_min = L_MAX * l_min_share
        session = Session(name, rate=rate, l_max=L_MAX, l_min=l_min,
                          route=[f"n{i}" for i in range(first, last + 1)])
        sinks[name] = network.add_session(session,
                                          sink=RecordingSink(name))
        if kind == "onoff":
            UniformLengthOnOff(network, session, length=L_MAX,
                               spacing=ms(13.25), mean_on=ms(352),
                               mean_off=ms(88), stream_name=name,
                               length_stream=f"len:{name}")
        else:
            UniformLengthPoisson(network, session, length=L_MAX,
                                 mean=ms(8), stream_name=name,
                                 length_stream=f"len:{name}")
    network.run(duration)
    return sinks


@pytest.fixture(scope="module")
def both():
    return build(LeaveInTime), build(VirtualClockOracle)


def test_identical_packet_counts(both):
    lit, vc = both
    for session_id in lit:
        assert lit[session_id].received == vc[session_id].received


def test_identical_delay_sequences(both):
    lit, vc = both
    for session_id in lit:
        assert lit[session_id].samples == pytest.approx(
            vc[session_id].samples, abs=1e-12)


def test_identical_extremes(both):
    lit, vc = both
    for session_id in lit:
        assert lit[session_id].max_delay == pytest.approx(
            vc[session_id].max_delay, abs=1e-12)
        assert lit[session_id].jitter == pytest.approx(
            vc[session_id].jitter, abs=1e-12)


def test_single_node_deadline_by_deadline():
    # Deterministic trace, one node: the eq.-2 and eq.-10/11 stamps
    # must agree packet for packet.
    from tests.conftest import add_trace_session
    times = [0.0, 0.0, 0.3, 0.31, 2.0, 2.0, 2.0]
    results = {}
    for name, factory in (("lit", LeaveInTime), ("vc", VirtualClockOracle)):
        network = make_network(factory, capacity=1000.0)
        _, sink, _ = add_trace_session(network, "s", rate=100.0,
                                       times=times, lengths=100.0)
        network.run(30.0)
        results[name] = [p.deadline for p in sink.packets]
    assert results["lit"] == pytest.approx(results["vc"], abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(scenario=scenarios())
def test_packet_for_packet_on_drawn_scenarios(scenario):
    """ROADMAP item 3(b).  Equal service order means *equal* delays,
    not close ones: a deadline only ever decides who goes next."""
    lit = build(LeaveInTime, scenario, duration=3.0)
    vc = build(VirtualClockOracle, scenario, duration=3.0)
    for session_id, sink in lit.items():
        assert sink.samples == vc[session_id].samples
        assert [packet.length for packet in sink.packets] == \
            [packet.length for packet in vc[session_id].packets]
        assert [packet.deadline for packet in sink.packets] == \
            pytest.approx([packet.deadline
                           for packet in vc[session_id].packets],
                          abs=1e-9)
