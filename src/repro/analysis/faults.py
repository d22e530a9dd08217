"""Per-session accounting for faulted runs (see ``repro.faults``).

Answers the questions a fault experiment asks after the run:

* how many packets did each session lose, and to which fault
  (``loss`` / ``corrupt`` / ``expired`` / ``flush``) versus ordinary
  finite-buffer overflow (``buffer``)?
* how long was each session exposed to an outage (links down or nodes
  paused along its route, plus its own teardown windows)?
* how often did delivered packets miss the session's end-to-end
  deadline — whether an outage's backlog violates the paper's eq.-12
  bound after recovery?

Everything reads state the ``net`` and ``faults`` layers already keep;
nothing here touches the simulation itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.faults.injector import DROP_REASONS, FaultInjector
from repro.net.network import Network
from repro.net.sink import Sink
from repro.optdeps import np

__all__ = [
    "SessionFaultStats",
    "deadline_misses",
    "session_fault_stats",
]

#: Reason label for ordinary finite-buffer overflow drops, which are
#: not the fault layer's doing but belong in the same ledger.
BUFFER_REASON = "buffer"


@dataclass(frozen=True)
class SessionFaultStats:
    """One session's fault exposure over a run."""

    session_id: str
    sent: int
    delivered: int
    #: reason -> packets lost to it, summed along the route.  Keys are
    #: :data:`repro.faults.injector.DROP_REASONS` plus ``"buffer"``.
    drops: Dict[str, int]
    #: Node-outage seconds summed along the route (a link-down and a
    #: pause overlapping on different nodes both count) plus this
    #: session's own teardown windows.
    outage_s: float
    #: Delivered packets whose end-to-end delay exceeded the bound
    #: (-1 when no bound was given or no samples were kept).
    deadline_misses: int
    #: Packets with recorded delay samples (basis of the miss count).
    observed: int

    @property
    def total_dropped(self) -> int:
        return sum(self.drops.values())


def deadline_misses(sink: Sink, bound: float) -> Tuple[int, int]:
    """``(misses, observed)`` for delivered packets against ``bound``.

    Needs the sink's raw delay samples (``keep_samples=True``); without
    them the answer is ``(-1, 0)`` — unknown, not zero.
    """
    series = sink.samples
    if series is None:
        return -1, 0
    delays = np.asarray(series.values, dtype=float)
    if delays.size == 0:
        return 0, 0
    return int(np.count_nonzero(delays > bound)), int(delays.size)


def _route_drops(network: Network, session_id: str,
                 route: Sequence[str]) -> Dict[str, int]:
    """Sum per-reason drops along ``route``; buffer drops by residue."""
    drops = {reason: 0 for reason in DROP_REASONS}
    fault_total = 0
    node_total = 0
    for node_name in route:
        node = network.nodes[node_name]
        node_total += node.drop_count(session_id)
        state = node.faults
        if state is None:
            continue
        for reason in DROP_REASONS:
            count = state.drops.get(reason, {}).get(session_id, 0)
            drops[reason] += count
            fault_total += count
    drops[BUFFER_REASON] = node_total - fault_total
    return {reason: count for reason, count in drops.items() if count}


def session_fault_stats(network: Network, session_id: str, *,
                        bound: Optional[float] = None,
                        route: Optional[Sequence[str]] = None
                        ) -> SessionFaultStats:
    """Assemble one session's :class:`SessionFaultStats` after a run.

    ``route`` is only needed for sessions no longer registered (torn
    down without recovery); registered sessions supply their own.
    """
    session = network.sessions.get(session_id)
    if route is None:
        if session is None:
            raise ValueError(
                f"session {session_id!r} is not registered; pass its "
                f"route explicitly")
        route = session.route
    sink = network.sinks[session_id]
    injector = network.faults
    outage = 0.0
    if isinstance(injector, FaultInjector):
        for node_name in route:
            outage += injector.outage_seconds("link", node_name)
            outage += injector.outage_seconds("pause", node_name)
        outage += injector.outage_seconds("session", session_id)
    misses, observed = (deadline_misses(sink, bound)
                        if bound is not None else (-1, 0))
    return SessionFaultStats(
        session_id=session_id,
        sent=session.packets_sent if session is not None
        else sink.received,
        delivered=sink.received,
        drops=_route_drops(network, session_id, route),
        outage_s=outage,
        deadline_misses=misses,
        observed=observed,
    )
