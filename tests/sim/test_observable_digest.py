"""What a user can see, hashed without the event count.

The dispatch goldens next door (``test_dispatch_digest.py``,
``test_state_backends.py``) pin *how* a run is executed: they hash
``events_dispatched`` and move whenever the event list is re-organised.
These pin only *what comes out*: every packet that reached a sink as a
``(session, seq, delay)`` tuple plus, per node, packets served, busy
time, drops, buffer peaks and the largest lateness — sorted, so the
order two sinks were written in does not matter.  A PR that changes how
many kernel events a packet-hop costs must leave every digest here
alone.

All goldens were recorded at 019d85f (the parent of decision-epoch
forwarding), before any edit under ``src/``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List, Tuple

import pytest
from hypothesis import (HealthCheck, example, given, settings,
                        strategies as st)

from repro.analysis.verify.sanitizer import Sanitizer
from repro.experiments import call_churn, heavy_traffic, \
    regulator_comparison
from repro.experiments.common import (FIVE_HOP, add_cross_traffic,
                                      add_onoff_session,
                                      build_mix_network, mix_specs)
from repro.net.network import Network
from repro.net.session import Session
from repro.net.sink import Sink
from repro.net.topology import CROSS_ONE_HOP_ROUTES, build_paper_network
from repro.sched.edd import JitterEDD
from repro.sched.hrr import HierarchicalRoundRobin
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.rcsp import RCSP
from repro.sched.stop_and_go import StopAndGo
from repro.sim.parallel import run_sharded
from repro.sim.trace import Tracer
from repro.traffic.onoff import OnOffSource
from repro.traffic.poisson import PoissonSource
from repro.units import ms
from tests.conftest import event_per_arrival

Observed = Tuple[List[Network], List[Tuple[str, int, float]]]


def observe(run: Callable[[], object]) -> Tuple[Observed, object]:
    """Run ``run`` recording every network built and packet sunk."""
    networks: List[Network] = []
    packets: List[Tuple[str, int, float]] = []
    init, receive = Network.__init__, Sink.receive

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        networks.append(self)

    def recording_receive(self, packet, now):
        packets.append((packet.session.id, packet.seq,
                        now - packet.entry_time))
        receive(self, packet, now)

    Network.__init__, Sink.receive = recording_init, recording_receive
    try:
        value = run()
    finally:
        Network.__init__, Sink.receive = init, receive
    return (networks, packets), value


def node_rows(network: Network) -> List[str]:
    return [
        f"{name}|{node.packets_served}|{node.busy_time!r}"
        f"|{sorted(node.drops.items())!r}"
        f"|{sorted(node.buffer_peak.items())!r}"
        f"|{node.scheduler.lateness.maximum!r}"
        for name, node in sorted(network.nodes.items())]


def digest(observed: Observed, *extra: str) -> str:
    networks, packets = observed
    parts = [repr(row) for row in sorted(packets)]
    for network in networks:
        parts.extend(node_rows(network))
    parts.extend(extra)
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# ----------------------------------------------------------------------
# The cells
# ----------------------------------------------------------------------
def _mix(jitter: bool, factory=LeaveInTime) -> str:
    jitter_ids = (frozenset(spec.session_id for spec in mix_specs())
                  if jitter else frozenset())
    observed, _ = observe(lambda: build_mix_network(
        ms(6.5), seed=0, jitter_ids=jitter_ids,
        scheduler_factory=factory).run(1.0))
    return digest(observed)


def _heavy() -> str:
    (cell,) = [cell for cell in heavy_traffic.cells(
        duration=3.0, seed=0, sessions=1000, rhos=(0.95,),
        backends=("soa",), topologies=("single",))
        if cell.kwargs["discipline"] == "leave-in-time"]
    observed, _ = observe(lambda: cell.fn(**cell.kwargs))
    return digest(observed)


def _churn() -> str:
    observed, result = observe(lambda: call_churn.run(
        duration=4.0, seed=0, offered_erlangs=60.0, mean_holding=0.5))
    return digest(observed, *(repr(call) for call in result.calls))


def _jitter_edd() -> str:
    observed, outcome = observe(lambda: regulator_comparison._cell(
        discipline="jitter-edd", cross_kind="conformant", duration=3.0,
        seed=0))
    return digest(observed, repr(outcome))


def _rcsp_network() -> Network:
    """The regulator-comparison cell with RCSP's rate regulators."""
    network = build_paper_network(
        lambda: RCSP([regulator_comparison.CROSS_LOCAL,
                      regulator_comparison.TARGET_LOCAL],
                     assignment={f"det-{label}": 0
                                 for label in CROSS_ONE_HOP_ROUTES}),
        seed=0)
    add_onoff_session(network, regulator_comparison.TARGET, FIVE_HOP,
                      ms(650))
    add_cross_traffic(network, deterministic=True)
    return network


def _rcsp() -> str:
    observed, _ = observe(lambda: _rcsp_network().run(3.0))
    return digest(observed)


def sharded_tandem() -> Network:
    """Eight T1 hops, jitter-controlled routes across every 2-way cut."""
    network = Network(seed=7)
    names = [f"n{i}" for i in range(1, 9)]
    for name in names:
        network.add_node(name, LeaveInTime(), capacity=1_536_000.0,
                         propagation=0.001)
    for index, route in enumerate(
            [names, names[1:5], names[3:7], names[:3], names[5:],
             names[2:4]] * 8):
        session = Session(f"s{index}", rate=32_000.0, route=route,
                          l_max=424.0, jitter_control=index % 2 == 0)
        network.add_session(session, keep_samples=False)
        OnOffSource(network, session, length=424.0, spacing=ms(13.25),
                    mean_on=ms(352.0), mean_off=ms(88.0))
    return network


def _two_shards() -> str:
    observed, result = observe(
        lambda: run_sharded(sharded_tandem, 0.5, partitions=2))
    # Every shard builds the whole topology; the merged payload holds
    # each node's counters from the shard that owns it.
    return digest(([], observed[1]), result.digest)


GOLDEN = {
    "mix_onoff":
        "d3868e96204ffa5a1296227d5d27db17f163d591429c4c4925afbe230761194a",
    "mix_jitter":
        "c08b0203557fba33bd4ca8a4ff796bc593ba5334311cf53e878aa54a32413b88",
    "heavy_1e3":
        "13e752679906555517c7d14f2384c6d398ce2a98c07d1f5a5b3b336c0c88640b",
    "call_churn":
        "48859eb0219c2e7fda1975103f01893dcc5b04c21d9ed425bdc8975455814d16",
    "jitter_edd":
        "68650d5c7cfe9c8ef9b034ae3a1b31e859791d453167753042268b2ea6a1f1f0",
    "rcsp":
        "238ba0a8613a6c77be1a09733eaac3758cf17c026d61a4737a74991b1d6919ba",
    "hrr":
        "ee428432ff573372a2c1dcd38627a0b75400cb77e262855af62c83c2c77c3f4c",
    "stop_and_go":
        "475d217edd45130ffbacabbd79bdd6506374735f9a44e31fa50c043b2fecfaf8",
    "two_shards":
        "066ade591ce84f8bf0696d77abebe2a15236f4f208a5fd3f8d01b4e9d056b1ee",
}

#: The framed disciplines run timers of their own: nothing may be
#: parked in front of them (tests/net/test_decision_epochs.py).
FRAME = ms(13.25)

CELLS = {"mix_onoff": lambda: _mix(False), "mix_jitter": lambda: _mix(True),
         "hrr": lambda: _mix(False, lambda: HierarchicalRoundRobin(FRAME)),
         "stop_and_go": lambda: _mix(False, lambda: StopAndGo(FRAME)),
         "heavy_1e3": _heavy, "call_churn": _churn,
         "jitter_edd": _jitter_edd, "rcsp": _rcsp,
         "two_shards": _two_shards}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_observables_match_the_parent(cell):
    assert CELLS[cell]() == GOLDEN[cell]


def test_serial_run_of_the_sharded_tandem_sees_the_same_packets():
    serial, _ = observe(lambda: sharded_tandem().run(0.5))
    sharded, _ = observe(
        lambda: run_sharded(sharded_tandem, 0.5, partitions=2))
    assert sorted(serial[1]) == sorted(sharded[1])


# ----------------------------------------------------------------------
# Same tree, two paths: only a discipline that is not ``deferrable``
# keeps one event per arrival; a tracer and the sanitizer only watch
# ----------------------------------------------------------------------
_DISCIPLINES = {
    "lit": LeaveInTime,
    "jitter-edd": JitterEDD,
    "rcsp": lambda: RCSP([0.01, 0.05]),
}


def _tandem(per_arrival: bool, watched: bool, discipline: str, hops: int,
            sessions: int, jitter: bool, poisson: bool,
            seed: int) -> Network:
    network = Network(seed=seed, tracer=Tracer(watched),
                      sanitizer=Sanitizer() if watched else None)
    factory = _DISCIPLINES[discipline]
    if per_arrival:
        factory = event_per_arrival(factory)
    names = [f"n{i}" for i in range(1, hops + 1)]
    for name in names:
        network.add_node(name, factory(),
                         capacity=1_536_000.0, propagation=0.001)
    for index in range(sessions):
        start = index % hops
        route = names[start:] if index % 3 else names
        session = Session(f"s{index}", rate=1_400_000.0 / sessions,
                          route=route, l_max=424.0,
                          jitter_control=jitter)
        network.add_session(session, keep_samples=False)
        if poisson:
            PoissonSource(network, session, length=424.0,
                          mean=424.0 * sessions / 1_300_000.0)
        else:
            OnOffSource(network, session, length=424.0,
                        spacing=424.0 * sessions / 1_400_000.0,
                        mean_on=0.02, mean_off=0.004)
    return network


@settings(max_examples=25, deadline=None,
          suppress_health_check=list(HealthCheck))
@given(discipline=st.sampled_from(sorted(_DISCIPLINES)),
       hops=st.integers(1, 4), sessions=st.integers(1, 12),
       jitter=st.booleans(), poisson=st.booleans(),
       seed=st.integers(0, 2 ** 16))
# A hold ending at the very instant of a parked arrival that an idle
# node had turned back into an event: while the wake timer tied at
# NORMAL it released the hold first and RCSP's FCFS queue swapped two
# packets (about one rcsp draw in forty).
@example(discipline="rcsp", hops=4, sessions=7, jitter=False,
         poisson=False, seed=2637)
@example(discipline="rcsp", hops=4, sessions=9, jitter=True,
         poisson=True, seed=64014)
# An idle node armed a wake timer earlier than its live one and left
# the later one armed: once the earlier fired, the next idle spell armed
# the later instant again, and the parked path dispatched more events
# than its twin (every extra one a wake).
@example(discipline="rcsp", hops=2, sessions=2, jitter=False,
         poisson=True, seed=11960)
@example(discipline="rcsp", hops=2, sessions=2, jitter=True,
         poisson=True, seed=29703)
def test_tracing_does_not_change_what_comes_out(
        discipline, hops, sessions, jitter, poisson, seed):
    """The parked path against its event-per-arrival twin, and the
    parked path watched (traced and sanitized) against itself."""
    def run(per_arrival: bool, watched: bool) -> Tuple[str, int]:
        observed, network = observe(lambda: _run_tandem(
            per_arrival, watched, discipline, hops, sessions, jitter,
            poisson, seed))
        return digest(observed), network.sim.events_dispatched

    reference, reference_events = run(True, False)
    plain, plain_events = run(False, False)
    assert plain == reference
    assert plain_events <= reference_events
    # A clean sanitizer report too: a violation raises out of ``run``.
    assert run(False, True) == (plain, plain_events)


def _run_tandem(*args) -> Network:
    network = _tandem(*args)
    network.run(0.3)
    return network
