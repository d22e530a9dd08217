"""Network-level admission: apply a procedure at every node of a route.

A connection is established only if the admission tests pass at *all*
nodes along the session's route (paper §2). The controller holds one
procedure instance per node and admits transactionally: a rejection at
any hop rolls back the reservations already made upstream, leaving the
network unchanged — the behaviour a signalling protocol would have.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.admission.base import Procedure
from repro.errors import AdmissionError, ConfigurationError
from repro.net.network import Network
from repro.net.node import ServerNode
from repro.net.session import Session

__all__ = ["AdmissionController"]


class AdmissionController:
    """Per-node procedures plus transactional route admission.

    Parameters
    ----------
    network:
        The built network whose nodes will be guarded.
    procedure_factory:
        Called once per node with the node object; returns that node's
        procedure (so per-node capacities and class menus can differ).
    """

    def __init__(self, network: Network,
                 procedure_factory: Callable[[ServerNode], Procedure]
                 ) -> None:
        self.network = network
        self.procedures: Dict[str, Procedure] = {
            name: procedure_factory(node)
            for name, node in network.nodes.items()
        }
        self._routes: Dict[str, List[str]] = {}

    def procedure_at(self, node_name: str) -> Procedure:
        procedure = self.procedures.get(node_name)
        if procedure is None:
            raise ConfigurationError(f"unknown node {node_name!r}")
        return procedure

    def admit(self, session: Session, **options) -> None:
        """Admit ``session`` at every node of its route, or nowhere.

        ``options`` are forwarded to each node's procedure (e.g.
        ``class_number=1``, ``per_packet=False``, ``epsilon=0.0`` for
        procedures 1/2, or ``d=0.002`` for procedure 3). On success the
        per-node delay policies are installed on the session, ready for
        the schedulers to pick up.
        """
        granted: List[str] = []
        policies = {}
        try:
            for node_name in session.route:
                policy = self.procedure_at(node_name).admit(
                    session, **options)
                granted.append(node_name)
                policies[node_name] = policy
        except AdmissionError as error:
            for node_name in granted:
                self.procedures[node_name].release(session.id)
            raise AdmissionError(
                f"session {session.id!r} rejected at node "
                f"{session.route[len(granted)]!r}: {error}",
                rule=error.rule,
                node=session.route[len(granted)]) from error
        for node_name, policy in policies.items():
            session.set_policy(node_name, policy)
        self._routes[session.id] = list(session.route)
        # ``--sanitize``: reserved rate ≤ capacity after every change.
        san = self.network.sanitizer
        if san is not None:
            san.check_reservations(self.procedures,
                                   self.network.sim.now)

    def release(self, session: Session) -> None:
        """Tear down a previously admitted session everywhere."""
        route = self._routes.pop(session.id, None)
        if route is None:
            return
        for node_name in route:
            self.procedures[node_name].release(session.id)
        session.delay_policies.clear()
        san = self.network.sanitizer
        if san is not None:
            san.check_reservations(self.procedures,
                                   self.network.sim.now)

    def reserved_rate(self, node_name: str) -> float:
        return self.procedure_at(node_name).reserved_rate
