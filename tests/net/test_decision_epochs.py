"""Decision-epoch forwarding: parked work is invisible to every reader.

A busy node takes in arrivals, regulator releases and sink deliveries
at its next completion instead of paying a kernel event for each
(``docs/simulator.md``).  Only a discipline that is not ``deferrable``
keeps one event per arrival, so the same network built from
``event_per_arrival(factory)`` (``tests/conftest.py``) is the reference
twin every test here compares against: whatever is read, whenever and
however the run was driven, both must answer the same.  (Until PR 21 an
enabled tracer switched the parked path off, until PR 24 an armed fault
plan did; a tracer and the sanitizer watch it and a plan acts on it —
the last section here and ``tests/faults/test_parked_faults.py`` hold
them to that.)
"""

from __future__ import annotations

import ast
import inspect
from typing import Callable, Dict, List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.sched as sched
from repro.analysis.verify.sanitizer import Sanitizer
from repro.experiments.common import build_mix_network, mix_specs
from repro.net.network import Network
from repro.net.node import ServerNode
from repro.net.session import Session
from repro.net.sink import Sink
from repro.sched.base import Scheduler
from repro.sched.fcfs import FCFS
from repro.sched.hrr import HierarchicalRoundRobin
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.stop_and_go import StopAndGo
from repro.sim.trace import Tracer
from repro.traffic.deterministic import DeterministicSource
from repro.traffic.onoff import OnOffSource
from repro.traffic.trace_source import TraceSource
from repro.units import ms
from tests.conftest import event_per_arrival
from tests.sim.test_dispatch_digest import trace_line
from tests.sim.test_observable_digest import observe

JITTER = frozenset(spec.session_id for spec in mix_specs()[::2])


def mix(per_arrival: bool, factory=LeaveInTime) -> Network:
    """The MIX cell, every other session jitter-controlled;
    ``per_arrival`` builds its event-per-arrival twin."""
    return build_mix_network(
        ms(6.5), seed=3, jitter_ids=JITTER,
        scheduler_factory=event_per_arrival(factory) if per_arrival
        else factory)


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
    """``drive`` on the parked-path network and on its twin."""
    plain, twin = mix(False), mix(True)
    answers = [drive(plain), drive(twin)]
    assert plain.sim.events_dispatched < twin.sim.events_dispatched
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

    (plain, waiting), (twin, _) = both(drive)
    assert plain == twin
    # The probes did find work parked: the views settled it.
    assert max(waiting) > 0


def test_a_bare_simulator_run_reads_the_same():
    def drive(network):
        for source in network.sources:
            source.start()
        network.sim.run(until=0.2)
        return reading(network)

    plain, twin = both(drive)
    assert plain == twin


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

    (plain_first, plain), (twin_first, twin) = both(twice)
    assert plain_first == twin_first
    assert plain == twin == once(mix(False))


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
def record_drains(network: Network) -> Dict[str, float]:
    """Removed session id -> the instant its removal was finalized."""
    drained: Dict[str, float] = {}
    finalize = network._finalize_removal

    def recording(session: Session) -> None:
        drained[session.id] = network.sim.now
        finalize(session)
    network._finalize_removal = recording
    return drained


def remove(network: Network, session_id: str) -> Sink:
    """Stop ``session_id``'s source and remove it; return its sink."""
    sink = network.sink(session_id)
    for source in list(network.sources):
        if source.session.id == session_id:
            source.stop()
    network.remove_session(session_id)
    return sink


def test_removal_with_packets_parked_ends_the_drain_on_time():
    def drive(network):
        drained = record_drains(network)
        network.run(0.2)
        found = {"inbox": 0, "calendar": 0}
        removed = {}
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
            removed[session_id] = remove(network, session_id)
        network.run(0.3)
        assert not network._draining
        return found, removed, drained, reading(network)

    network, twin = mix(False), mix(True)
    found, removed, drained, after = drive(network)
    assert found["inbox"] and found["calendar"]
    # The twin parks nothing: remove the same sessions there.
    reference = record_drains(twin)
    twin.run(0.2)
    kept = {session_id: remove(twin, session_id) for session_id in removed}
    twin.run(0.3)
    assert sorted(drained) == sorted(removed)
    assert drained == reference
    assert after == reading(twin)
    assert ({sid: (sink.received, sink.delay.mean)
             for sid, sink in removed.items()}
            == {sid: (sink.received, sink.delay.mean)
                for sid, sink in kept.items()})


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
             "_release", "_push", "_eligibility", "_mature", "_hold"}
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


def test_observers_take_nothing_in():
    """No method of ``Sanitizer`` or ``Tracer`` settles, wakes or
    schedules: ``backlog`` / ``held`` settle the node, and a hook that
    read them took parked arrivals in with no ``created`` to order
    them by (the sanitizer did, until it stopped switching the parked
    path off)."""
    acting = {"settle", "settle_sinks", "wakeup", "backlog", "held",
              "schedule", "schedule_at"}
    checked = 0
    for cls in (Sanitizer, Tracer):
        tree = ast.parse(inspect.getsource(inspect.getmodule(cls)))
        (body,) = [node for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   and node.name == cls.__name__]
        for method in body.body:
            if isinstance(method, ast.FunctionDef):
                checked += 1
                acts = [n.attr for n in ast.walk(method)
                        if isinstance(n, ast.Attribute)
                        and n.attr in acting]
                assert not acts, f"{cls.__name__}.{method.name}: {acts}"
    assert checked > 20


# ----------------------------------------------------------------------
# Whoever is watching: a tracer and the sanitizer see the parked path
# ----------------------------------------------------------------------
def watched_mix(monkeypatch) -> Network:
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    network = mix(False)
    monkeypatch.delenv("REPRO_SANITIZE")
    assert network.sanitizer is not None
    network.tracer.recording = True
    return network


def test_watching_changes_no_event_and_no_reading(monkeypatch):
    def drive(network):
        network.run(0.3)
        return reading(network), network.sim.events_dispatched

    watched, emitted = watched_mix(monkeypatch), []
    emit = watched.tracer.emit
    watched.tracer.emit = lambda time, *args, **detail: (
        emitted.append(time), emit(time, *args, **detail))
    assert drive(watched) == drive(mix(False))
    report = watched.sanitizer.report()
    assert report.clean and report.checks_run > 10_000
    # Parked work was traced when taken in, behind later records.
    assert emitted != sorted(emitted) and len(emitted) > 10_000
    # Holds matured at decision epochs were seen, at their own instant.
    eligible = list(watched.tracer.filter("eligible"))
    assert len(eligible) > 500
    held = {(r.node, r.session, r.packet): r.detail["eligible"]
            for r in watched.tracer.filter("deadline")}
    assert all(held[r.node, r.session, r.packet] == r.time
               for r in eligible)


def test_trace_records_come_back_in_time_order_and_complete(monkeypatch):
    """Records are emitted when parked work is taken in, each with its
    own instant, and ``records`` keeps them in time order.  After
    ``Network.run`` nothing due is missing; a mid-run probe has to
    ``network.settle()`` first, like a reader of a bare ``Sink``."""
    def lines(records, until):
        return sorted(trace_line(r) for r in records if r.time <= until)

    network = watched_mix(monkeypatch)
    seen = {}

    def probe():
        stale = len(network.tracer.records)
        network.settle()
        seen[network.sim.now] = (stale, list(network.tracer.records))

    for k in range(1, 20):
        network.sim.schedule_at(0.0151 * k, probe)
    network.run(0.3)
    records = network.tracer.records
    times = [record.time for record in records]
    assert times == sorted(times) and times[-1] <= 0.3
    # The event-per-arrival twin emitted every record at the clock.
    twin = mix(True)
    twin.tracer.recording = True
    twin.run(0.3)
    assert lines(records, 0.3) == lines(twin.tracer.records, 0.3)
    for when, (_, settled) in seen.items():
        assert lines(settled, when) == lines(twin.tracer.records, when)
    # Some probe did find due work still parked: settling surfaced it.
    assert sum(stale < len(settled) for stale, settled in seen.values()) > 5


# ----------------------------------------------------------------------
# Exact ties, constructed: lockstep cells where every instant is dyadic
# ----------------------------------------------------------------------
QUANTUM = 2.0 ** -12    # one 512-bit transmission at 2**21 bit/s
LOCKSTEP_GAMMA = 2.0 ** -10


def lockstep(per_arrival: bool, factory, sessions, jitter=False,
             slow=(), gamma=LOCKSTEP_GAMMA) -> Network:
    """Deterministic sources on a grid of ``QUANTUM``: ``sessions`` is
    ``(route, period, offset, length)`` in quanta, nodes named in
    ``slow`` run at half speed.  Every arrival, completion, tick and
    hold release is a small multiple of ``2**-12``, exact in binary
    floating point, so ties are ties."""
    network = Network(tracer=Tracer(True))
    if per_arrival:
        factory = event_per_arrival(factory)
    for name in sorted({name for route, *_ in sessions for name in route}):
        network.add_node(name, factory(), propagation=gamma,
                         capacity=2.0 ** (20 if name in slow else 21))
    for index, (route, period, offset, length) in enumerate(sessions):
        session = Session(f"s{index}", rate=length * 2.0 ** 21 / period,
                          route=list(route), l_max=512.0 * length,
                          jitter_control=jitter)
        network.add_session(session, keep_samples=False)
        DeterministicSource(network, session, length=512.0 * length,
                            interval=period * QUANTUM,
                            start_delay=offset * QUANTUM)
    return network


def lockstep_pair(*cell):
    """The parked run against its twin: both runs' per-packet
    delays, and the first service decision they disagree on as
    ``(instant in quanta, node, parked choice, twin choice)``."""
    delays, served = [], []
    for per_arrival in (False, True):
        (_, packets), network = observe(
            lambda: _ran(lockstep(per_arrival, *cell), 512 * QUANTUM))
        delays.append({row[:2]: row[2] for row in packets})
        served.append(sorted((r.node, r.time / QUANTUM, r.session)
                             for r in network.tracer.filter("tx_start")))
    differ = sorted((a[1], a[0], a[2], b[2])
                    for a, b in zip(*served) if a != b)
    # Whatever both runs delivered by the horizon.
    both = delays[0].keys() & delays[1].keys()
    assert len(both) > 0.95 * len(delays[1])
    return ([{key: run[key] for key in both} for run in delays],
            differ[0] if differ else None)


def _ran(network: Network, duration: float) -> Network:
    network.run(duration)
    return network


@settings(max_examples=40, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(factory=st.sampled_from([FCFS, LeaveInTime]),
       slow=st.sets(st.sampled_from(["n1", "n2", "n3"])),
       sessions=st.lists(
           st.tuples(st.integers(2, 3), st.sampled_from([16, 24, 32]),
                     st.integers(0, 7), st.integers(1, 2)),
           min_size=1, max_size=4))
def test_ties_the_created_rule_orders_match_the_event_path(
        factory, slow, sessions):
    """Every source enters at ``n1``, so downstream the only exact tie
    is the systematic one — an upstream arrival landing on the
    receiver's own completion — whose two creation instants differ: the
    ``created`` rule orders it as ``(time, seq)`` would.  Every cell of
    the family parks something (600 of 600 in a scratch sweep, none
    disagreeing)."""
    names = ["n1", "n2", "n3"]
    (plain, twin), differ = lockstep_pair(
        factory, [(names[:hops], period, offset, length)
                  for hops, period, offset, length in sessions],
        False, slow)
    assert plain == twin and differ is None


#: What the rule cannot order, one cell each (``docs/simulator.md``,
#: "The exact-tie rule"): the node cannot know when a source armed its
#: tick, and one instant's creations carry no order.  A drawn search
#: over through-plus-local cells of this shape disagreed with the event
#: path in 95 of 300; the parked order below is the semantics.
RESIDUE = {
    # An idle n2 had turned the parked arrival due at 15 back into an
    # event at 14; a local tick armed at 12 ties with it and goes first
    # (event by event the arrival, sent at 11, would have).
    "tick-vs-arrival-turned-event": (
        (FCFS, [(("n1", "n2"), 2, 0, 1), (("n2",), 3, 0, 1)]),
        (15.0, "n2", "s1", "s0")),
    # A hold ending at 9 at an idle n2 ties with a local tick: the tick
    # matures the hold before it queues its own packet and the node
    # picks among both (event by event the tick, armed first, starts
    # its packet alone).
    "tick-vs-hold": (
        (LeaveInTime, [(("n1", "n2"), 2, 0, 1), (("n2",), 3, 0, 1)], True),
        (9.0, "n2", "s0", "s1")),
    # Two holds end at 61 at an idle n2: the wake lets both join the
    # queue before the node picks by deadline (event by event the first
    # timer would have started its packet alone).
    "two-holds-one-instant": (
        (LeaveInTime, [(("n1", "n2", "n3"), 24, 5, 1),
                       (("n1", "n2"), 16, 5, 2)], True, {"n1", "n3"}),
        (61.0, "n2", "s1", "s0")),
    # Two feeders complete at 23: one arrival is parked at m, the other
    # sent as an event — created at one instant, so the event goes first
    # whatever the completions' ``seq`` order was.
    "one-instant-two-creations": (
        (FCFS, [(("f0", "m"), 2, 0, 1), (("f1", "m"), 8, 1, 1),
                (("f0", "m"), 16, 0, 1)]),
        None),
}


@pytest.mark.parametrize("name", sorted(RESIDUE))
def test_ties_the_rule_cannot_order_follow_the_parked_order(name):
    cell, decision = RESIDUE[name]
    (plain, twin), differ = lockstep_pair(*cell)
    assert plain != twin
    assert decision is None or differ == decision


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
