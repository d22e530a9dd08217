"""Per-session accounting for faulted runs (see ``repro.faults``).

Answers the questions a fault experiment asks after the run:

* how many packets did each session lose to a fault (``loss``) versus
  ordinary finite-buffer overflow (``buffer``)?
* how long was each session exposed to an outage (links down along
  its route)?
* how often did delivered packets miss the session's end-to-end
  deadline — whether an outage's backlog violates the paper's eq.-12
  bound after recovery?

Everything reads state the ``net`` and ``faults`` layers already keep;
nothing here touches the simulation itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.net.network import Network
from repro.net.sink import Sink
from repro.optdeps import np

__all__ = [
    "SessionFaultStats",
    "deadline_misses",
    "session_fault_stats",
]


@dataclass(frozen=True)
class SessionFaultStats:
    """One session's fault exposure over a run."""

    session_id: str
    sent: int
    delivered: int
    #: reason -> packets lost to it, summed along the route: ``"loss"``
    #: (a fault) and ``"buffer"`` (finite-buffer overflow, not the fault
    #: layer's doing but in the same ledger); zero counts left out.
    drops: Dict[str, int]
    #: Link-outage seconds summed along the route (overlapping outages
    #: on different nodes both count).
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
    if sink.samples is None:
        return -1, 0
    delays = np.asarray(sink.samples, dtype=float)
    if delays.size == 0:
        return 0, 0
    return int(np.count_nonzero(delays > bound)), int(delays.size)


def _route_drops(network: Network, session_id: str,
                 route: Sequence[str]) -> Dict[str, int]:
    """Sum losses along ``route``; buffer drops by residue."""
    nodes = [network.nodes[name] for name in route]
    total = sum(node.drop_count(session_id) for node in nodes)
    loss = sum(node.faults.drops.get(session_id, 0) for node in nodes
               if node.faults is not None)
    drops = {"loss": loss, "buffer": total - loss}
    return {reason: count for reason, count in drops.items() if count}


def session_fault_stats(network: Network, session_id: str, *,
                        bound: Optional[float] = None
                        ) -> SessionFaultStats:
    """Assemble one registered session's :class:`SessionFaultStats`
    after a run."""
    session = network.sessions[session_id]
    route = session.route
    sink = network.sinks[session_id]
    injector = network.faults
    outage = 0.0
    if injector is not None:
        for node_name in route:
            outage += injector.outage_seconds(node_name)
    misses, observed = (deadline_misses(sink, bound)
                        if bound is not None else (-1, 0))
    return SessionFaultStats(
        session_id=session_id,
        sent=session.packets_sent,
        delivered=sink.received,
        drops=_route_drops(network, session_id, route),
        outage_s=outage,
        deadline_misses=misses,
        observed=observed,
    )
