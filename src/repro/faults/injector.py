"""Binding a :class:`~repro.faults.plan.FaultPlan` to a live network.

The injector turns every plan entry into ordinary kernel events with an
**explicit priority** (:data:`PRIORITY_FAULT`), so fault state changes
interleave with data-path events in one deterministic total order: a
fault firing at instant *t* runs before any same-instant packet event,
and two fault timers at the same instant run in plan order.  Nothing
here reads the wall clock or ambient RNG — loss coins come from the
network's named :class:`~repro.sim.rng.RandomStreams` substream
``faults.<node>`` — so a faulted run is exactly as reproducible as a
fault-free one, and bit-identical across ``--workers``.

Cost model
----------
Arming a plan attaches one :class:`NodeFaultState` to each node the
plan references and sets ``Network.faults``; the data path then pays
one attribute check per transmission start/finish *on those nodes
only*; the event schedule gains the plan's own timers and nothing else.
Going first of its instant, the link-up handler takes in what was
parked for *strictly before* it (``settle(-inf)``), then wakes the node
under the same bound (``docs/simulator.md``).

Trace events (all behind ``tracer.enabled``): ``link_down``,
``link_up``, ``fault_drop``.
"""

from __future__ import annotations

from math import inf
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.faults.plan import FaultPlan
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    import random

    from repro.net.network import Network

__all__ = [
    "PRIORITY_FAULT",
    "NodeFaultState",
    "FaultInjector",
]

#: Tie-break priority of every fault timer.  Negative, so a fault state
#: change at instant ``t`` is applied before any same-instant data-path
#: event (which use PRIORITY_NORMAL = 0): a link that goes down at ``t``
#: blocks a transmission that would start at ``t``, and a link that
#: comes up at ``t`` can serve an arrival landing at ``t``.  Ties among
#: fault timers themselves resolve by insertion order = plan order.
PRIORITY_FAULT = -16


class NodeFaultState:
    """Mutable fault state of one node, mutated only by fault timers.

    ``blocked`` is ``not link_up``, the flag the transmission path
    checks; :meth:`transmit_verdict` draws the loss coin for one
    departing packet.
    """

    __slots__ = ("rng", "blocked", "loss_rate", "drops")

    def __init__(self, rng: "random.Random") -> None:
        self.rng = rng
        self.blocked = False
        self.loss_rate = 0.0
        #: session id -> packets lost on this node's link.
        self.drops: Dict[str, int] = {}

    def transmit_verdict(self, packet: Packet) -> Optional[str]:
        """``"loss"`` or ``None`` for one departing packet.

        The coin is drawn only while a window is active, so a plan whose
        windows never open consumes no randomness at all and the node's
        stream stays aligned with a fault-free run.
        """
        rate = self.loss_rate
        if rate > 0.0 and self.rng.random() < rate:
            return "loss"
        return None


class FaultInjector:
    """Applies a :class:`FaultPlan` to one network, deterministically."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.network: Optional["Network"] = None
        #: Node name -> armed fault state (only nodes the plan names).
        self.states: Dict[str, NodeFaultState] = {}
        #: Completed link outages: (node, start, end).
        self.outages: List[Tuple[str, float, float]] = []
        #: (node, session id) -> packets too late for eq. 9: A clamped to 0.
        self.hold_misses: Dict[Tuple[str, str], int] = {}
        self._outage_started: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, network: "Network") -> "FaultInjector":
        """Arm the plan on ``network``: create states, schedule timers.

        Must be called once, before the run; all fault instants must be
        at or after the network clock's current value.  Every check
        runs before anything is armed: a refused plan leaves the
        network as it was.
        """
        if self.network is not None:
            raise SimulationError(
                "FaultInjector.install() called twice; build a fresh "
                "injector per run")
        if network.faults is not None:
            raise ConfigurationError(
                f"network already has a fault injector armed "
                f"({network.faults.plan!r}); merge the plans into one")
        plan = self.plan
        missing = [name for name in plan.nodes_referenced()
                   if name not in network.nodes]
        if missing:
            raise ConfigurationError(
                f"fault plan references unknown nodes {missing}")
        sim = network.sim
        # (instant, entry, handler, args) in plan order: ties among
        # fault timers resolve by insertion order.
        timers: List[tuple] = []
        for down in plan.link_downs:
            timers += [(down.down_at, down, self._link_down, (down.node,)),
                       (down.up_at, down, self._link_up, (down.node,))]
        for loss in plan.losses:
            timers += [(loss.start, loss, self._set_loss_rate,
                        (loss.node, loss.rate)),
                       (loss.stop, loss, self._set_loss_rate,
                        (loss.node, 0.0))]
        for instant, entry, _, _ in timers:
            if instant < sim.now:
                raise ConfigurationError(
                    f"fault plan entry {entry!r} starts at {instant!r}, "
                    f"before the clock ({sim.now!r})")
        self.network = network
        network.faults = self
        for name in plan.nodes_referenced():
            state = NodeFaultState(network.streams.stream(f"faults.{name}"))
            self.states[name] = state
            network.nodes[name].faults = state
        for instant, _, handler, args in timers:
            sim.schedule_at(instant, handler, *args,
                            priority=PRIORITY_FAULT)
        return self

    # ------------------------------------------------------------------
    # Link faults
    # ------------------------------------------------------------------
    def _link_down(self, name: str) -> None:
        network = self.network
        assert network is not None
        self.states[name].blocked = True
        self._outage_started[name] = network.sim.now
        tracer = network.tracer
        if tracer.enabled:
            tracer.emit(network.sim.now, "link_down", name)

    def _link_up(self, name: str) -> None:
        network = self.network
        assert network is not None
        now = network.sim.now
        node = network.nodes[name]
        node.settle(-inf)  # still blocked: the outage's arrivals queue
        self.states[name].blocked = False
        self.outages.append((name, self._outage_started.pop(name), now))
        tracer = network.tracer
        if tracer.enabled:
            tracer.emit(now, "link_up", name)
        node.wakeup(-inf)

    def _set_loss_rate(self, name: str, rate: float) -> None:
        self.states[name].loss_rate = rate

    # ------------------------------------------------------------------
    # Outage bookkeeping
    # ------------------------------------------------------------------
    def finalize(self, horizon: float) -> None:
        """Close outage windows still open when the run stopped."""
        for name, start in sorted(self._outage_started.items()):
            self.outages.append((name, start, horizon))
        self._outage_started.clear()

    def outage_seconds(self, node: Optional[str] = None) -> float:
        """Total closed link-outage seconds, optionally of one node."""
        return sum(end - start for name, start, end in self.outages
                   if node is None or name == node)
