"""Network model: packets, links, server nodes, sessions, and topologies.

This subpackage provides the store-and-forward packet network the paper
simulates: connection-oriented sessions with fixed routes over server
nodes in tandem, each node owning one outgoing link of capacity ``C``
and propagation delay ``Γ``, with a pluggable service discipline (see
:mod:`repro.sched`).
"""

from repro import _lazy_exports

#: Public name -> defining module, imported on first use.
_EXPORTS = {
    "Link": ".link",
    "Network": ".network",
    "ServerNode": ".node",
    "Packet": ".packet",
    "Session": ".session",
    "Sink": ".sink",
    "route_from_letters": ".route",
    "ENTRANCES": ".route",
    "EXITS": ".route",
    "build_paper_network": ".topology",
    "MIX_ROUTE_COUNTS": ".topology",
    "CROSS_ROUTES": ".topology",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
