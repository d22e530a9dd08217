"""Network-level admission: apply a procedure at every node of a route.

A connection is established only if the admission tests pass at *all*
nodes along the session's route (paper §2). The controller holds one
procedure instance per node and admits transactionally: a refusal of
any kind at any hop rolls back the reservations already made upstream,
leaving the network unchanged — the behaviour a signalling protocol
would have.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

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
        self._routes: Dict[str, Tuple[str, ...]] = {}

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
        the schedulers to pick up. A refusal re-raises an
        :class:`AdmissionError` naming the node, any other error as is.
        """
        route = session.route
        procedures, policies = self.procedures, []
        try:
            for node_name in route:
                procedure = procedures.get(node_name)
                if procedure is None:
                    procedure = self.procedure_at(node_name)  # raises
                policies.append(procedure.admit(session, **options))
        except BaseException as error:
            for node_name in route[:len(policies)]:
                procedures[node_name].release(session.id)
            if not isinstance(error, AdmissionError):
                raise
            node = route[len(policies)]
            raise AdmissionError(
                f"session {session.id!r} rejected at node {node!r}: "
                f"{error}", rule=error.rule, node=node) from error
        session.delay_policies.update(zip(route, policies))
        self._routes[session.id] = route
        # ``--sanitize``: reserved rate ≤ capacity where it changed.
        san = self.network.sanitizer
        if san is not None:
            san.check_reservations(
                {name: procedures[name] for name in route},
                self.network.sim.now)

    def release(self, session: Session) -> None:
        """Tear down a previously admitted session everywhere."""
        route = self._routes.pop(session.id, None)
        if route is None:
            return
        procedures, session_id = self.procedures, session.id
        for node_name in route:
            procedures[node_name].release(session_id)
        session.delay_policies.clear()
        san = self.network.sanitizer
        if san is not None:
            san.check_reservations(
                {name: procedures[name] for name in route},
                self.network.sim.now)

    def reserved_rate(self, node_name: str) -> float:
        return self.procedure_at(node_name).reserved_rate
