"""The packet, including the in-header fields Leave-in-Time relies on.

The paper's mechanism carries one piece of cross-node state inside the
packet header: the holding time ``A`` computed at node ``n-1`` and
consumed by node ``n``'s delay regulator (paper eq. 7-9). We model the
header literally as attributes of the :class:`Packet` object, which the
network never copies — the same object traverses the whole route, as a
real header field would.

Per-node scratch fields (``arrival_time``, ``deadline``, ``eligible_time``,
``finish_time``) are overwritten at each hop; only ``holding_time``
semantically travels between nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.session import Session

__all__ = ["Packet"]


class Packet:
    """A packet of a session, numbered in arrival order from 1.

    Attributes
    ----------
    session:
        The owning :class:`~repro.net.session.Session`.
    seq:
        1-based sequence number within the session (the paper's ``i``).
    length:
        Packet length in bits (the paper's ``L_{i,s}``).
    entry_time:
        Time the packet's last bit arrived at the first server node —
        the origin for end-to-end delay measurements.
    hop_index:
        Index into ``session.route`` of the node currently holding the
        packet (-1 before injection).
    holding_time:
        The in-header field ``A`` (paper eq. 8-9): computed by the
        upstream node's scheduler at transmission completion, applied by
        this node's delay regulator. Zero at the first node.
    arrival_time:
        Last-bit arrival time at the current node (``t^n_{i,s}``).
    eligible_time:
        Time the packet joined (or will join) the current node's
        transmission queue (``E^n_{i,s}``).
    deadline:
        Transmission deadline at the current node (``F^n_{i,s}``).
    finish_time:
        Actual finishing transmission time at the current node
        (``F̂^n_{i,s}``), set when the last bit leaves.
    """

    __slots__ = ("session", "seq", "length", "entry_time", "hop_index",
                 "holding_time", "arrival_time", "eligible_time",
                 "deadline", "finish_time")

    def __init__(self, session: "Session", seq: int, length: float,
                 entry_time: float) -> None:
        self.session = session
        self.seq = seq
        self.length = length
        self.entry_time = entry_time
        self.hop_index = -1
        self.holding_time = 0.0
        self.arrival_time = entry_time
        self.eligible_time = entry_time
        self.deadline = entry_time
        self.finish_time = entry_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Packet {self.session.id}#{self.seq} L={self.length}b "
                f"hop={self.hop_index}>")
