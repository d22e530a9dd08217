"""Shared builders and paper constants for the Section-3 experiments.

All the paper's simulations share: 424-bit packets, the Figure-6
T1 tandem, 32 kbit/s ON-OFF sessions with T = 13.25 ms and
a_ON = 352 ms, the a_OFF sweep {6.5 ... 650} ms, and the MIX / CROSS
traffic configurations. The builders here assemble those pieces so
each figure module only states what differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set

from repro.bounds.delay import SessionBounds, compute_session_bounds
from repro.net.network import Network
from repro.net.route import route_from_letters
from repro.net.session import Session
from repro.net.topology import (
    CROSS_ONE_HOP_ROUTES,
    MIX_ROUTE_COUNTS,
    build_paper_network,
)
from repro.sched.leave_in_time import LeaveInTime
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.onoff import OnOffSource
from repro.traffic.poisson import PoissonSource
from repro.units import ms, to_ms

__all__ = [
    "PAPER_PACKET_BITS",
    "PAPER_SPACING_S",
    "PAPER_A_ON_S",
    "PAPER_A_OFF_SWEEP_S",
    "PAPER_ONOFF_RATE_BPS",
    "PAPER_CROSS_POISSON_RATE_BPS",
    "PAPER_CROSS_POISSON_MEAN_S",
    "FIVE_HOP",
    "TARGET",
    "SessionSpec",
    "Reading",
    "build_mix_network",
    "add_onoff_session",
    "add_cross_traffic",
    "read_target",
]

#: 424-bit ATM packets, used by every source in Section 3.
PAPER_PACKET_BITS = 424.0

#: In-burst packet spacing T = 13.25 ms (32 kbit/s at 424 bits).
PAPER_SPACING_S = ms(13.25)

#: Mean ON duration a_ON = 352 ms.
PAPER_A_ON_S = ms(352)

#: The a_OFF sweep of Figures 7 and 14-17.
PAPER_A_OFF_SWEEP_S = tuple(ms(v) for v in
                            (6.5, 18.5, 39.1, 88.0, 150.9, 288.0, 650.0))

#: Reserved rate of every ON-OFF (and Deterministic) session.
PAPER_ONOFF_RATE_BPS = 32_000.0

#: The Figure-8/10 Poisson cross traffic: 1472 kbit/s reserved,
#: a_P = 0.28804 ms.
PAPER_CROSS_POISSON_RATE_BPS = 1_472_000.0
PAPER_CROSS_POISSON_MEAN_S = 0.28804e-3

#: The tandem end to end: every five-hop target's route.
FIVE_HOP = ("n1", "n2", "n3", "n4", "n5")

#: The five-hop ON-OFF target of the CROSS-based studies.
TARGET = "onoff-target"


@dataclass
class SessionSpec:
    """One MIX session's identity: route label and index within it."""

    label: str
    index: int

    @property
    def session_id(self) -> str:
        return f"{self.label}/{self.index}"

    @property
    def route(self) -> List[str]:
        entrance, exit_ = self.label.split("-")
        return route_from_letters(entrance, exit_)


def mix_specs() -> List[SessionSpec]:
    """Every MIX session in deterministic order."""
    specs = []
    for label in sorted(MIX_ROUTE_COUNTS):
        for index in range(1, MIX_ROUTE_COUNTS[label] + 1):
            specs.append(SessionSpec(label, index))
    return specs


def add_onoff_session(network: Network, session_id: str,
                      route: Sequence[str], a_off: float, *,
                      jitter_control: bool = False,
                      monitor_buffer: bool = False,
                      keep_samples: bool = False,
                      keep_trace: bool = False) -> Session:
    """A paper-standard 32 kbit/s ON-OFF session with its source.

    The session declares conformance to the token bucket
    ``(32 kbit/s, 424 bits)`` — valid because in-burst spacing is
    exactly T = L/r and burst gaps are at least T — which is what the
    figures' bound curves use for ``D_ref`` (eq. 14).
    """
    session = Session(session_id, rate=PAPER_ONOFF_RATE_BPS,
                      route=route, l_max=PAPER_PACKET_BITS,
                      jitter_control=jitter_control,
                      token_bucket=(PAPER_ONOFF_RATE_BPS,
                                    PAPER_PACKET_BITS),
                      monitor_buffer=monitor_buffer)
    network.add_session(session, keep_samples=keep_samples)
    OnOffSource(network, session, length=PAPER_PACKET_BITS,
                spacing=PAPER_SPACING_S, mean_on=PAPER_A_ON_S,
                mean_off=a_off, keep_trace=keep_trace)
    return session


def build_mix_network(a_off: float, *,
                      scheduler_factory: Callable[[], object] = LeaveInTime,
                      seed: int = 0,
                      jitter_ids: Set[str] = frozenset(),
                      sim: Optional[Simulator] = None,
                      order_seed: Optional[int] = None) -> Network:
    """The MIX configuration: 116 ON-OFF sessions, 48 per node.

    ``jitter_ids`` selects the sessions (by ``"label/index"`` id) that
    get delay-jitter control; no session keeps raw delay samples.  An
    admission controller may install per-node
    delay policies on the built sessions any time before ``run``:
    Leave-in-Time reads a session's policy at its first packet.

    ``sim`` injects a pre-built simulator; ``order_seed``, when set,
    registers the sessions in a seeded-shuffled order instead of the
    canonical sorted one.  Both exist for the schedule-perturbation
    differ (``repro-analyze --perturb``): because every random stream is
    named by the session's stable id, a shuffled registration order
    must leave all observables bit-identical — any difference is a
    hidden order dependence.
    """
    network = build_paper_network(scheduler_factory, seed=seed, sim=sim)
    specs = mix_specs()
    if order_seed is not None:
        RandomStreams(order_seed).stream("registration-order").shuffle(specs)
    for spec in specs:
        session_id = spec.session_id
        add_onoff_session(network, session_id, spec.route, a_off,
                          jitter_control=session_id in jitter_ids)
    return network


def add_cross_traffic(network: Network, *,
                      rate: float = PAPER_CROSS_POISSON_RATE_BPS,
                      mean: float = PAPER_CROSS_POISSON_MEAN_S,
                      deterministic: bool = False,
                      count: Optional[int] = None,
                      via: Sequence[str] = ()) -> List[Session]:
    """Cross traffic on every one-hop CROSS route, registered route by
    route; returns its sessions.

    One Poisson session ``cross-<route>`` per route, mean gap
    ``mean``; ``deterministic`` sessions are named ``det-<route>`` and
    send one packet every ``L/rate``, every source in phase.  Given
    ``count``, each route carries ``count`` sessions, the name suffixed
    ``-0``, ``-1``, ...  ``via`` names nodes every cross route passes
    first.
    """
    if deterministic:
        # Imported where it is used: no ledger workload sends it.
        from repro.traffic.deterministic import DeterministicSource
    sessions = []
    for label in CROSS_ONE_HOP_ROUTES:
        entrance, exit_ = label.split("-")
        route = [*via, *route_from_letters(entrance, exit_)]
        name = f"det-{label}" if deterministic else f"cross-{label}"
        for session_id in ([name] if count is None else
                           [f"{name}-{index}" for index in range(count)]):
            session = Session(session_id, rate=rate, route=route,
                              l_max=PAPER_PACKET_BITS)
            network.add_session(session, keep_samples=False)
            if deterministic:
                DeterministicSource(network, session,
                                    length=PAPER_PACKET_BITS,
                                    interval=PAPER_PACKET_BITS / rate)
            else:
                PoissonSource(network, session, length=PAPER_PACKET_BITS,
                              mean=mean)
            sessions.append(session)
    return sessions


@dataclass(frozen=True)
class Reading:
    """One session's end-to-end measurements beside its eq.-12/17
    bounds, in milliseconds; ``bounds`` holds every bound in seconds."""

    packets: int
    mean_ms: float
    max_ms: float
    jitter_ms: float
    bound_ms: float
    jitter_bound_ms: float
    bounds: SessionBounds


def read_target(network: Network, session_id: str) -> Reading:
    """Read ``session_id``'s sink and bounds after a run."""
    sink = network.sink(session_id)
    bounds = compute_session_bounds(network, network.sessions[session_id])
    return Reading(packets=sink.received, mean_ms=to_ms(sink.delay.mean),
                   max_ms=to_ms(sink.max_delay), jitter_ms=to_ms(sink.jitter),
                   bound_ms=to_ms(bounds.max_delay),
                   jitter_bound_ms=to_ms(bounds.jitter), bounds=bounds)
