"""Decision-epoch forwarding: parked work is invisible to every reader.

A busy node takes in arrivals, regulator releases and sink deliveries
at its next completion instead of paying a kernel event for each
(``docs/simulator.md``).  An enabled :class:`~repro.sim.trace.Tracer`
keeps one event per arrival, so the same network built with tracing on
is the reference every test here compares against: whatever is read,
whenever and however the run was driven, both must answer the same.
"""

from __future__ import annotations

import ast
import inspect
from typing import Callable, Dict, List

import pytest

import repro.sched as sched
from repro.experiments.common import build_mix_network, mix_specs
from repro.net.network import Network
from repro.net.node import ServerNode
from repro.net.session import Session
from repro.sched.base import Scheduler
from repro.sched.fcfs import FCFS
from repro.sched.hrr import HierarchicalRoundRobin
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.stop_and_go import StopAndGo
from repro.traffic.onoff import OnOffSource
from repro.traffic.trace_source import TraceSource
from repro.units import ms

JITTER = frozenset(spec.session_id for spec in mix_specs()[::2])


def mix(traced: bool, factory=LeaveInTime) -> Network:
    """The MIX cell, every other session jitter-controlled."""
    network = build_mix_network(ms(6.5), seed=3, jitter_ids=JITTER,
                                scheduler_factory=factory)
    network.tracer.enabled = traced
    return network


def reading(network: Network) -> Dict[str, object]:
    """Everything the settle-before-read views expose, at this instant."""
    nodes = network.nodes
    return {
        "now": network.sim.now,
        "sunk": {sid: (sink.received, sink.delay.mean)
                 for sid, sink in network.sinks.items()},
        "one": network.sink("a-j/1").received,
        "bits": {name: node.buffer_bits for name, node in nodes.items()},
        "peak": {name: node.buffer_peak for name, node in nodes.items()},
        "drops": {name: node.drops for name, node in nodes.items()},
        "backlog": {name: node.scheduler.backlog
                    for name, node in nodes.items()},
        "held": {name: node.scheduler.held
                 for name, node in nodes.items()},
        "in_flight": {sid: network._in_flight(session)
                      for sid, session in network.sessions.items()},
    }


def parked(network: Network) -> int:
    return (len(network._calendar)
            + sum(len(node._inbox or ()) + len(node._holds)
                  for node in network.nodes.values()))


def both(drive: Callable[[Network], object]) -> List[object]:
    """``drive`` on the parked-path network and on its traced twin."""
    plain, traced = mix(False), mix(True)
    answers = [drive(plain), drive(traced)]
    assert plain.sim.events_dispatched < traced.sim.events_dispatched
    return answers


# ----------------------------------------------------------------------
# Settle before read
# ----------------------------------------------------------------------
def test_a_mid_run_probe_reads_what_the_event_path_reads():
    def drive(network):
        seen, waiting = [], []

        def probe():
            waiting.append(parked(network))
            seen.append(reading(network))

        for k in range(1, 40):
            network.sim.schedule(0.0071 * k, probe)
        network.run(0.3)
        return seen, waiting

    (plain, waiting), (traced, _) = both(drive)
    assert plain == traced
    # The probes did find work parked: the views settled it.
    assert max(waiting) > 0


def test_a_bare_simulator_run_reads_the_same():
    def drive(network):
        for source in network.sources:
            source.start()
        network.sim.run(until=0.2)
        return reading(network)

    plain, traced = both(drive)
    assert plain == traced


def test_entries_later_than_the_clock_stay_pending():
    network = mix(False)
    network.run(0.2)
    assert parked(network) > 0
    for node in network.nodes.values():
        assert all(time > 0.2 for time, _ in node._inbox)
        assert all(entry[0] > 0.2 for entry in node._holds)
    assert all(time > 0.2 for time, _ in network._calendar)


def test_two_consecutive_runs_equal_one():
    def twice(network):
        network.run(0.13)
        first = reading(network)
        network.run(0.3)
        return first, reading(network)

    def once(network):
        network.run(0.3)
        return reading(network)

    (plain_first, plain), (traced_first, traced) = both(twice)
    assert plain_first == traced_first
    assert plain == traced == once(mix(False))


def test_a_sink_is_not_written_before_the_packet_lands():
    """The regression a first prototype hit: ``call_churn._harvest``
    reads ``network.sinks[id].received`` mid-run, and a delivery made
    at the last hop's completion showed up a propagation delay early.
    """
    network = Network()
    network.add_node("n1", FCFS(), capacity=100.0, propagation=0.5)
    session = Session("s", rate=100.0, route=["n1"], l_max=100.0)
    held_sink = network.add_session(session)
    TraceSource(network, session, times=[0.0], lengths=100.0)
    seen = []
    for when in (1.2, 1.5):
        network.sim.schedule_at(
            when, lambda: seen.append(network.sinks["s"].received))
    network.run(1.4)            # transmitted at 1.0, lands at 1.5
    assert held_sink.received == 0 and len(network._calendar) == 1
    network.run(2.0)
    assert seen == [0, 1] and held_sink.received == 1


# ----------------------------------------------------------------------
# Teardown with packets parked
# ----------------------------------------------------------------------
def test_removal_with_packets_parked_ends_the_drain_on_time():
    def drive(network):
        network.run(0.2)
        found = {"inbox": 0, "calendar": 0}
        removed, drained = [], {}
        for session_id, session in list(network.sessions.items()):
            in_inbox = any(packet.session is session
                           for node in network.nodes.values()
                           for _, packet in node._inbox)
            in_calendar = any(packet.session is session
                              for _, packet in network._calendar)
            if not (in_inbox or in_calendar) or len(removed) >= 12:
                continue
            found["inbox"] += in_inbox
            found["calendar"] += in_calendar
            for source in network.sources:
                if source.session is session:
                    source.stop()
            network.remove_session(session_id)
            removed.append(session_id)
            network.notify_when_drained(
                session_id, lambda sid=session_id: drained.setdefault(
                    sid, network.sim.now))
        network.run(0.3)
        assert not network._draining
        return found, removed, drained, reading(network)

    network, traced = mix(False), mix(True)
    found, removed, drained, after = drive(network)
    assert found["inbox"] and found["calendar"]
    # The traced twin parks nothing: remove the same sessions there.
    traced.run(0.2)
    reference = {}
    for session_id in removed:
        for source in traced.sources:
            if source.session.id == session_id:
                source.stop()
        traced.remove_session(session_id)
        traced.notify_when_drained(
            session_id, lambda sid=session_id: reference.setdefault(
                sid, traced.sim.now))
    traced.run(0.3)
    assert drained == reference
    assert after == reading(traced)


# ----------------------------------------------------------------------
# Disciplines that run timers of their own
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factory", [
    lambda: HierarchicalRoundRobin(ms(13.25)),
    lambda: StopAndGo(ms(13.25))], ids=["hrr", "stop-and-go"])
def test_nothing_is_parked_in_front_of_a_framed_discipline(factory):
    network = mix(False, factory)
    assert not any(node.scheduler.deferrable
                   for node in network.nodes.values())
    network.run(0.3)
    for node in network.nodes.values():
        assert node._inbox is None and node.packets_served > 0
        # Every hold kept a timer of its own.
        assert all(entry[3] is not None for entry in node._holds)


def test_every_deferrable_discipline_works_from_the_now_it_is_handed():
    """No data-path hook of a deferrable discipline reads the clock."""
    hooks = {"on_arrival", "next_packet", "on_transmit_complete",
             "_release", "_eligibility", "_mature", "_hold"}
    checked = 0
    for name in sched.__all__:
        cls = getattr(sched, name)
        if not (inspect.isclass(cls) and issubclass(cls, Scheduler)
                and cls.deferrable):
            continue
        for klass in cls.__mro__[:-1]:
            tree = ast.parse(inspect.getsource(inspect.getmodule(klass)))
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name in hooks:
                    checked += 1
                    reads = [n for n in ast.walk(node)
                             if isinstance(n, ast.Attribute)
                             and n.attr == "now"]
                    assert not reads, f"{klass.__name__}.{node.name}"
    assert checked > 20
    assert not HierarchicalRoundRobin.deferrable
    assert not StopAndGo.deferrable


# ----------------------------------------------------------------------
# Two things a profile cannot point at
# ----------------------------------------------------------------------
def test_server_node_keeps_its_attribute_values_inline():
    """CPython 3.11 stores an instance's attribute values inline only
    while it has fewer than 30: the 30th made every ``self.x`` on the
    hop path a dict probe and the light-load data plane 5 % slower
    (measured while building decision-epoch forwarding, on a node that
    was otherwise unchanged).  Put new per-node state on the scheduler,
    the network or a column of the session table instead."""
    for node in mix(False).nodes.values():
        assert len(vars(node)) <= 29


def test_a_lightly_loaded_next_hop_is_sent_events_not_parked_arrivals():
    """Parking pays only if the arrival finds the node still busy: it
    waits for a busy spell that has outlasted the propagation delay.
    At a third of capacity few arrivals (it was one in six before the
    rule) should be parked and then
    turned back into an event by ``ServerNode._idle``."""
    network = Network(seed=1)
    names = [f"n{i}" for i in range(1, 6)]
    for name in names:
        network.add_node(name, LeaveInTime(), capacity=1_536_000.0,
                         propagation=0.001)
    for index in range(45):
        session = Session(f"s{index}", rate=32_000.0, route=names,
                          l_max=424.0)
        network.add_session(session, keep_samples=False)
        OnOffSource(network, session, length=424.0, spacing=ms(13.25),
                    mean_on=ms(352.0), mean_off=ms(650.0))
    handed_back = []
    idle = ServerNode._idle

    def counting_idle(node):
        handed_back.append(bool(node._inbox))
        idle(node)

    ServerNode._idle = counting_idle
    try:
        network.run(2.0)
    finally:
        ServerNode._idle = idle
    hops = sum(node.packets_served for node in network.nodes.values())
    assert hops > 5000 and sum(handed_back) < 0.05 * hops
