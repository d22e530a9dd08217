"""A fault plan acts on decision-epoch forwarding; it does not switch it off.

Until PR 24 arming any plan — an empty one included — moved the whole
network onto the event-per-arrival path, so the faulted runs were the
one kind of run that did not execute the forwarding path everything
else measures and certifies.  Now a plan is an actor on the parked
path (``docs/simulator.md``, "What a fault handler does to parked
work"): a fault timer runs first of its instant, takes in what arrived
or matured *strictly before* it, acts, and wakes the node.  Each test
here runs a faulted cell twice — parked, and on its event-per-arrival
twin (``tests.conftest.event_per_arrival``) under the *same* plan — and
asks for the same answer, once per fault kind.

Dropping ``network.faults is not None`` from the park condition and
from ``Scheduler._hold`` *without* that rule passes every older test
under ``tests/faults`` and ``tests/experiments/test_fault_sweep.py``;
the pinned examples below are draws on which it does not (a loss then
picks the next packet past a hold that was due; a link-up starts the
backlog's first parked arrival before the rest of it has queued).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from repro.errors import SimulationError
from repro.experiments.common import build_mix_network, mix_specs
from repro.faults import FaultInjector, FaultPlan, LinkDown, PacketLoss
from repro.faults.injector import PRIORITY_FAULT
from repro.net.network import Network
from repro.net.session import Session
from repro.sched.edd import JitterEDD
from repro.sched.fcfs import FCFS
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.policy import constant_policy
from repro.traffic.trace_source import TraceSource
from repro.units import ms
from tests.conftest import event_per_arrival, make_network
from tests.net.test_decision_epochs import QUANTUM, lockstep
from tests.sim.test_dispatch_digest import FIG07_CELL_EVENTS, trace_line
from tests.sim.test_observable_digest import digest, observe

SPECS = {spec.session_id: spec for spec in mix_specs()}
JITTER = frozenset(spec.session_id for spec in mix_specs()[::2])
DISCIPLINES = {"lit": (LeaveInTime, frozenset()),
               "lit-jitter": (LeaveInTime, JITTER),
               "jitter-edd": (JitterEDD, JITTER),
               "fcfs": (FCFS, frozenset())}

#: kind -> plan of one fault of that kind on ``node`` from ``start`` to
#: ``stop``: a link down whose backlog is served when it comes back up,
#: or a loss window.
KINDS: Dict[str, Callable[[str, float, float], FaultPlan]] = {
    "requeue": lambda node, start, stop: FaultPlan(
        link_downs=[LinkDown(node, start, stop)]),
    "loss": lambda node, start, stop: FaultPlan(
        losses=[PacketLoss(node, start, stop, 0.2)]),
}
#: How long each kind lasts on the MIX cell (s): a blocking fault long
#: enough to build a backlog, a coin window long enough to hit packets.
SPAN = {"requeue": 0.02, "loss": 0.1}


def outcome(network: Network, injector: FaultInjector) -> Dict[str, object]:
    """What a faulted run leaves behind, event counts left out."""
    return {
        "sinks": {sid: (sink.received, sink.delay.mean, sink.max_delay)
                  for sid, sink in sorted(network.sinks.items())},
        "nodes": {name: (node.packets_served, sorted(node.drops.items()),
                         sorted(node.buffer_peak.items()))
                  for name, node in sorted(network.nodes.items())},
        "faults": {name: state.drops
                   for name, state in sorted(injector.states.items())},
        "outages": injector.outages,
        "hold_misses": injector.hold_misses,
    }


def faulted_mix(per_arrival: bool, discipline: str, seed: int,
                plan: FaultPlan, probe: Optional[Tuple[str, float]] = None
                ) -> Tuple[Dict[str, object], int, Optional[int]]:
    """Run the MIX cell (ρ ≈ 0.98) under ``plan`` for 0.3 s: its
    outcome, its event count and — for ``probe = (node, instant)`` —
    how much was parked at the node when the fault timer fired."""
    factory, jitter = DISCIPLINES[discipline]
    network = build_mix_network(
        ms(6.5), seed=seed, jitter_ids=jitter,
        scheduler_factory=event_per_arrival(factory) if per_arrival
        else factory)
    injector = FaultInjector(plan).install(network)
    parked = []
    if probe is not None:
        node = network.nodes[probe[0]]
        # Ahead of the fault timer itself: what it will find.
        network.sim.schedule_at(
            probe[1], lambda: parked.append(len(node._inbox or ())
                                            + len(node._holds)),
            priority=PRIORITY_FAULT - 1)
    network.run(0.3)
    injector.finalize(0.3)
    return (outcome(network, injector), network.sim.events_dispatched,
            parked[0] if parked else None)


# ----------------------------------------------------------------------
# The differential, one draw per fault kind at a time
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(discipline=st.sampled_from(sorted(DISCIPLINES)),
       seed=st.integers(0, 2 ** 16),
       node=st.sampled_from(["n1", "n2", "n3", "n4", "n5"]),
       at=st.floats(0.08, 0.22), kind=st.sampled_from(sorted(KINDS)))
# The draw the naive removal breaks: the bare ``_try_start()`` of the
# old fault branch picked the next packet without maturing the holds
# due by then.
@example(discipline="lit-jitter", seed=0, node="n2", at=0.1, kind="loss")
def test_a_plan_acts_on_the_parked_path_as_on_the_event_path(
        discipline, seed, node, at, kind):
    plan = KINDS[kind](node, at, at + SPAN[kind])
    parked_run, events, waiting = faulted_mix(
        False, discipline, seed, plan, probe=(node, at))
    # Not vacuous: the fault timer did find work parked at the node.
    assume(waiting > 0)
    twin_run, twin_events, _ = faulted_mix(True, discipline, seed, plan)
    assert parked_run == twin_run
    assert events < twin_events


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_faulted_parked_run_is_a_checked_run(kind, monkeypatch):
    """One cell per kind with the sanitizer attached: a violation
    raises out of ``Network.run``, and watching changes no event."""
    plan = KINDS[kind]("n2", 0.15, 0.15 + SPAN[kind])
    plain = faulted_mix(False, "lit-jitter", 3, plan)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    (networks, _), watched = observe(
        lambda: faulted_mix(False, "lit-jitter", 3, plan))
    monkeypatch.delenv("REPRO_SANITIZE")
    report = networks[0].sanitizer.report()
    assert report.clean and report.checks_run > 10_000
    assert watched == plain
    assert plain[0] == faulted_mix(True, "lit-jitter", 3, plan)[0]


# ----------------------------------------------------------------------
# Exact ties, constructed: the fault instant on the lockstep grid
# ----------------------------------------------------------------------
#: Three quanta, a delay no transmission lasts (they take 1, 2 or 4):
#: a completion then never ties with an arrival sent at the instant it
#: started — the one tie of this family that carries no order
#: (``RESIDUE["one-instant-two-creations"]``; it showed in 18 of 8 000
#: faulted draws at four quanta, in 0 of 3 000 at three).
GAMMA = 3 * QUANTUM


def faulted_lockstep(per_arrival: bool, cell, plan: FaultPlan):
    """A lockstep cell under ``plan``: per packet, per drop, per service
    decision."""
    def run():
        network = lockstep(per_arrival, *cell, gamma=GAMMA)
        injector = FaultInjector(plan).install(network)
        network.run(512 * QUANTUM)
        return network, injector

    (_, packets), (network, injector) = observe(run)
    tracer = network.tracer
    return {
        "delays": sorted(packets),
        "served": sorted((r.node, r.time / QUANTUM, r.session, r.packet)
                         for r in tracer.filter("tx_start")),
        "dropped": sorted((r.node, r.time / QUANTUM, r.session, r.packet)
                          for r in tracer.filter("fault_drop")),
        "outcome": outcome(network, injector),
    }, network.sim.events_dispatched


def grid_plan(kind: str, node: str, at: int, span: int) -> FaultPlan:
    return KINDS[kind](node, at * QUANTUM, (at + span) * QUANTUM)


ROUTES = [("n1", "n2"), ("n1", "n2", "n3")]


@settings(max_examples=60, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(factory=st.sampled_from([FCFS, LeaveInTime]),
       slow=st.sets(st.sampled_from(["n1", "n2", "n3"])),
       sessions=st.lists(
           st.tuples(st.sampled_from(ROUTES),
                     st.sampled_from([8, 12, 16, 24, 32]),
                     st.integers(0, 7), st.integers(1, 2)),
           min_size=2, max_size=6),
       kind=st.sampled_from(sorted(KINDS)),
       at=st.integers(20, 300),
       span=st.sampled_from([1, 3, 5, 8, 16, 40, 60]))
# The link-up, on which reverting its settle shows: the backlog's first
# parked arrival is started before the rest of it has queued, ahead of
# a smaller deadline.
@example(factory=LeaveInTime, slow={"n2", "n3"},
         sessions=[(ROUTES[1], 12, 0, 1), (ROUTES[0], 32, 4, 2),
                   (ROUTES[1], 32, 1, 1), (ROUTES[1], 8, 1, 2),
                   (ROUTES[1], 24, 4, 1)], kind="requeue", at=122, span=5)
def test_a_fault_on_the_grid_acts_the_same_on_both_paths(
        factory, slow, sessions, kind, at, span):
    """Dyadic instants, the fault's own included: it ties with arrivals
    and completions, and FCFS and Leave-in-Time without jitter control
    agree with the twin per packet, per drop and per decision."""
    load = sum(length / period for _, period, _, length in sessions)
    assume(load * (2 if slow else 1) <= 0.95)
    cell = (factory, sessions, False, slow)
    assume(faulted_lockstep(False, cell, FaultPlan())[0]
           == faulted_lockstep(True, cell, FaultPlan())[0])
    plan = grid_plan(kind, "n2", at, span)
    (parked_run, events), (twin_run, twin_events) = (
        faulted_lockstep(False, cell, plan),
        faulted_lockstep(True, cell, plan))
    assert parked_run == twin_run
    assert events <= twin_events


# ----------------------------------------------------------------------
# An armed plan that does nothing changes nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("watched", [False, True], ids=["plain", "watched"])
@pytest.mark.parametrize("jitter, events", [
    (frozenset(), FIG07_CELL_EVENTS), (frozenset(SPECS), 26_611)],
    ids=["fig07", "all-jitter"])
def test_an_empty_plan_dispatches_the_unarmed_runs_events(
        jitter, events, watched, monkeypatch):
    """Armed with ``FaultPlan()`` the fig07 cell took 33 041 events and
    its all-jitter twin 39 258 until PR 24; traced and sanitized too,
    they now take the unarmed run's, to the same observables."""
    def cell(arm: bool):
        if watched:
            monkeypatch.setenv("REPRO_SANITIZE", "1")
        network = build_mix_network(ms(88.0), seed=0, jitter_ids=jitter)
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert (network.sanitizer is not None) == watched
        network.tracer.recording = watched
        if arm:
            FaultInjector(FaultPlan()).install(network)
        network.run(1.0)
        return network

    unarmed, network = observe(lambda: cell(False))
    armed, armed_network = observe(lambda: cell(True))
    assert digest(armed) == digest(unarmed)
    assert (armed_network.sim.events_dispatched
            == network.sim.events_dispatched == events)
    assert (sorted(map(trace_line, armed_network.tracer.records))
            == sorted(map(trace_line, network.tracer.records)))


# ----------------------------------------------------------------------
# A loss that ends a drain settles the node it is completing on
# ----------------------------------------------------------------------
def test_a_loss_that_ends_a_drain_does_not_start_two_transmissions():
    """Zero propagation: ``b#1`` lands on n2 at the very instant n2
    completes ``a#1`` — the last packet in flight of a session being
    torn down — and loses it.  Counting that drop settles n2, which
    takes ``b#1`` in and, idle for the moment, starts ``c#1``; the
    completion's own pick must then stand back (it used to be
    ``_try_start()``, which asks whether the link is free)."""
    network = make_network(FCFS, nodes=2, capacity=1000.0)
    sinks = {}
    for name, route, times in (("a", ["n1", "n2"], [0.0]),
                               ("b", ["n1", "n2"], [0.1, 0.2]),
                               ("c", ["n2"], [0.12])):
        session = Session(name, rate=100.0, route=route, l_max=100.0)
        sinks[name] = network.add_session(session)
        TraceSource(network, session, times=times, lengths=100.0)
    injector = FaultInjector(FaultPlan(
        losses=[PacketLoss("n2", 0.15, 0.25, 1.0)])).install(network)
    network.sim.schedule_at(0.15, network.remove_session, "a")
    network.run(1.0)
    assert injector.states["n2"].drops == {"a": 1}
    assert not network._draining
    assert {sid: sink.received for sid, sink in sinks.items()} == {
        "a": 0, "b": 2, "c": 1}


# ----------------------------------------------------------------------
# A blocking fault under jitter control: eq. 9 behind an outage
# ----------------------------------------------------------------------
def saturated_tandem() -> Network:
    """Two jitter-controlled sessions whose ``d`` eq. 19 would reject:
    n1 finishes them far behind ``F + L_MAX/C``, so eq. 9 goes negative."""
    network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
    for name in ("a", "b"):
        session = Session(name, rate=500.0, route=["n1", "n2"],
                          l_max=100.0, jitter_control=True)
        session.set_policy("n1", constant_policy(0.001, l_max=100.0))
        network.add_session(session)
        TraceSource(network, session, times=[0.0] * 10, lengths=100.0)
    return network


def test_a_negative_holding_time_still_raises_with_no_plan_armed():
    with pytest.raises(SimulationError, match="went negative"):
        saturated_tandem().run(30.0)


def test_an_armed_plan_clamps_it_and_books_a_deadline_miss(monkeypatch):
    """``A ≥ 0`` is proved for an unsaturated server and an outage is
    not one: the next hop reads 0, as from a switch that cannot give
    back what the outage took, and the packet is on the books."""
    read = []
    on_arrival = LeaveInTime.on_arrival

    def recording(self, packet, now):
        read.append(packet.holding_time)
        on_arrival(self, packet, now)

    monkeypatch.setattr(LeaveInTime, "on_arrival", recording)
    network = saturated_tandem()
    injector = FaultInjector(FaultPlan()).install(network)
    network.run(30.0)
    assert network.sink("a").received == network.sink("b").received == 10
    assert min(read) == 0.0
    # Equal deadlines go in arrival order: every ``a`` leaves 0.099 s
    # late, every ``b`` 0.199 s — a packet time more than eq. 9 absorbs.
    assert injector.hold_misses == {("n1", "b"): 10}


@pytest.mark.parametrize("kind", ["requeue"])
def test_a_blocking_fault_under_jitter_control_is_not_a_traceback(kind):
    """At the parent ``LinkDown("n2", 0.15, 0.17)`` on this cell raised
    ``holding-time computation went negative (-0.0078…)`` out of
    ``on_transmit_complete`` — on both paths."""
    plan = KINDS[kind]("n2", 0.15, 0.17)
    (parked_run, _, _), (twin_run, _, _) = (
        faulted_mix(False, "lit-jitter", 0, plan),
        faulted_mix(True, "lit-jitter", 0, plan))
    assert parked_run == twin_run
    misses = parked_run["hold_misses"]
    assert misses and {node for node, _ in misses} == {"n2"}
