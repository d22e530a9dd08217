"""``Network.add_sessions``: a session population registered in one call.

Two contracts.  A batch builds the network that one ``add_session``
call per session builds — the same slots, the same ``sessions`` order,
the same node views and the same observables.  And a batch is all or
nothing: a refusal anywhere in it, a scheduler's included, leaves the
network exactly as it found it.
"""

from __future__ import annotations

import pytest

from repro.errors import AdmissionError, ConfigurationError
from repro.experiments import heavy_traffic
from repro.experiments.common import PAPER_PACKET_BITS
from repro.net.network import Network
from repro.net.session import Session
from repro.net.sink import Sink
from repro.net.topology import build_paper_network
from repro.sched.hrr import HierarchicalRoundRobin
from repro.sched.leave_in_time import LeaveInTime
from repro.traffic.poisson import PoissonSource
from repro.units import T1_RATE_BPS
from tests.conftest import add_trace_session, make_network
from tests.sim.test_observable_digest import digest, observe


SESSIONS = 1000


def _soa():
    """The heavy-traffic cell: one superposed source, one shared sink."""
    (cell,) = [cell for cell in heavy_traffic.cells(
        duration=1.0, seed=0, sessions=SESSIONS, rhos=(0.95,),
        topologies=("single",))
        if cell.kwargs["discipline"] == "leave-in-time"]
    cell.fn(**cell.kwargs)


def _objects():
    """The same population with a ``PoissonSource`` and a sink each."""
    network = build_paper_network(LeaveInTime, node_count=1, seed=0)
    length = PAPER_PACKET_BITS
    members = [Session(f"h{index}", rate=T1_RATE_BPS / SESSIONS,
                       route=("n1",), l_max=length)
               for index in range(SESSIONS)]
    network.add_sessions(members, keep_samples=False)
    for session in members:
        PoissonSource(network, session, length=length,
                      mean=length * SESSIONS / (0.95 * T1_RATE_BPS))
    network.run(1.0)


def _one_at_a_time(monkeypatch):
    """Make every ``add_sessions`` call one call per session."""
    batch = Network.add_sessions

    def singly(network, sessions, **options):
        for session in sessions:
            batch(network, (session,), **options)

    monkeypatch.setattr(Network, "add_sessions", singly)


def _built(build):
    observed, _ = observe(build)
    (network,) = observed[0]
    node = network.nodes["n1"]
    return (
        [(session_id, session.slot)
         for session_id, session in network.sessions.items()],
        list(node.buffer_peak.items()),
        list(node.drops.items()),
        digest(observed),
    )


@pytest.mark.parametrize("build", [_soa, _objects],
                         ids=["soa", "objects"])
def test_a_batch_builds_what_one_call_per_session_builds(build,
                                                         monkeypatch):
    batch = _built(build)
    with monkeypatch.context() as patch:
        _one_at_a_time(patch)
        singly = _built(build)
    slots, peaks, _, _ = batch
    assert len(slots) == SESSIONS and len(peaks) == SESSIONS
    assert [slot for _, slot in slots] == list(range(SESSIONS))
    assert batch == singly


# ----------------------------------------------------------------------
# All or nothing
# ----------------------------------------------------------------------
def _state(network):
    """Everything a registration writes, copied."""
    table = network.session_table
    return (
        list(network.sessions.items()),
        list(network.sinks.items()),
        network.l_max,
        list(table.rows),
        list(table._free),
        table._fresh,
        table.capacity,
        {name: (node._member.tobytes(), dict(node._samples))
         for name, node in network.nodes.items()},
    )


def _lit_network():
    """Two LiT nodes, a live session and a draining one."""
    network = make_network(LeaveInTime, nodes=2, capacity=1.0)
    add_trace_session(network, "live", rate=0.5, times=[], lengths=10.0)
    add_trace_session(network, "gone", rate=0.1, times=[0.0],
                      lengths=10.0, route=["n1"])
    network.run(5.0)  # gone's 10 s packet is still on the link
    network.remove_session("gone")
    assert "gone" in network._draining
    return network


def _fresh(count, route=("n1", "n2")):
    """``count`` new sessions, enough to grow the 64-row table, with an
    ``l_max`` above every registered one."""
    return [Session(f"f{index}", rate=0.001, route=route, l_max=99.0,
                    monitor_buffer=index == 0)
            for index in range(count)]


def _elsewhere():
    session = Session("held", rate=0.001, route=["n1"], l_max=10.0)
    make_network(LeaveInTime).add_session(session)
    return session


REFUSALS = {
    "registered id": (lambda: Session("live", rate=0.001, route=["n1"],
                                      l_max=10.0),
                      "duplicate session id 'live'"),
    "id twice in the batch": (lambda: Session("f3", rate=0.001,
                                              route=["n1"], l_max=10.0),
                              "duplicate session id 'f3'"),
    "draining id": (lambda: Session("gone", rate=0.001, route=["n1"],
                                    l_max=10.0),
                    "still draining"),
    "unknown node": (lambda: Session("u", rate=0.001, route=["n1", "n9"],
                                     l_max=10.0),
                     r"unknown nodes \['n9'\]"),
    "slot already held": (_elsewhere, "already holds slot"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_refused_batch_changes_nothing(case):
    network = _lit_network()
    before = _state(network)
    make, message = REFUSALS[case]
    batch = _fresh(100) + [make()]
    with pytest.raises(ConfigurationError, match=message):
        network.add_sessions(batch)
    assert _state(network) == before
    assert all(session.slot == -1 for session in batch[:100])
    # The same network still takes the batch without the bad session.
    network.add_sessions(batch[:100])
    assert [s.slot for s in batch[:100]] == list(range(2, 102))


def test_an_hrr_refusal_on_the_kth_session_changes_nothing():
    # n1 fits the whole batch; n2 (10^4 b/s) fits five 2·10^3 b/s
    # sessions and refuses the sixth.
    network = make_network(lambda: HierarchicalRoundRobin(frame=0.01),
                           capacity=1e6)
    network.add_node("n2", HierarchicalRoundRobin(frame=0.01),
                     capacity=1e4)
    network.add_session(Session("first", rate=1e3, route=["n1"],
                                l_max=10.0))
    schedulers = [node.scheduler for node in network.nodes.values()]

    def hrr_state():
        return [(s._reserved, list(s._order), dict(s._quota))
                for s in schedulers]

    before, hrr_before = _state(network), hrr_state()
    batch = [Session(f"b{index}", rate=2e3, route=["n1", "n2"],
                     l_max=20.0, monitor_buffer=True)
             for index in range(8)]
    with pytest.raises(AdmissionError, match="HRR cannot fit session 'b5'"):
        network.add_sessions(batch)
    assert _state(network) == before
    assert hrr_state() == hrr_before
    assert all(session.slot == -1 for session in batch)
    network.add_sessions(batch[:5])
    assert len(network.sessions) == 6


# ----------------------------------------------------------------------
# Sink options
# ----------------------------------------------------------------------
@pytest.mark.parametrize("option, value", [
    ("keep_samples", False), ("keep_packets", True)])
def test_a_sink_option_beside_a_given_sink_is_refused(option, value):
    network = make_network(LeaveInTime)
    session = Session("s", rate=1.0, route=["n1"], l_max=10.0)
    with pytest.raises(ConfigurationError, match=option):
        network.add_session(session, sink=Sink("shared"),
                            **{option: value})
    assert network.sessions == {} and session.slot == -1


def test_a_given_sink_is_shared_by_the_batch():
    network = make_network(LeaveInTime)
    shared = Sink("shared", keep_samples=False)
    batch = [Session(f"s{index}", rate=1.0, route=["n1"], l_max=10.0)
             for index in range(3)]
    network.add_sessions(batch, sink=shared)
    assert all(network.sinks[s.id] is shared for s in batch)
    assert network.add_session(
        Session("own", rate=1.0, route=["n1"], l_max=10.0),
        keep_samples=False) is network.sinks["own"] is not shared
