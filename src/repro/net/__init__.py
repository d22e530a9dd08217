"""Network model: packets, links, server nodes, sessions, and topologies.

This subpackage provides the store-and-forward packet network the paper
simulates: connection-oriented sessions with fixed routes over server
nodes in tandem, each node owning one outgoing link of capacity ``C``
and propagation delay ``Γ``, with a pluggable service discipline (see
:mod:`repro.sched`).
"""

from repro.net.link import Link
from repro.net.network import Network
from repro.net.node import ServerNode
from repro.net.packet import Packet
from repro.net.route import ENTRANCES, EXITS, route_from_letters, route_name
from repro.net.session import Session
from repro.net.sink import Sink
from repro.net.topology import (
    CROSS_ROUTES,
    MIX_ROUTE_COUNTS,
    build_paper_network,
)

__all__ = [
    "Link",
    "Network",
    "ServerNode",
    "Packet",
    "Session",
    "Sink",
    "route_from_letters",
    "route_name",
    "ENTRANCES",
    "EXITS",
    "build_paper_network",
    "MIX_ROUTE_COUNTS",
    "CROSS_ROUTES",
]
