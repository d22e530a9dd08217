"""Binding a :class:`~repro.faults.plan.FaultPlan` to a live network.

The injector turns every plan entry into ordinary kernel events with an
**explicit priority** (:data:`PRIORITY_FAULT`), so fault state changes
interleave with data-path events in one deterministic total order: a
fault firing at instant *t* runs before any same-instant packet event,
and two fault timers at the same instant run in plan order.  Nothing
here reads the wall clock or ambient RNG — loss/corruption coins come
from the network's named :class:`~repro.sim.rng.RandomStreams`
substreams (one per node, prefixed by the plan's ``rng_namespace``) —
so a faulted run is exactly as reproducible as a fault-free one, and
bit-identical across ``--workers`` shards.

Cost model
----------
Arming a plan attaches one :class:`NodeFaultState` to each node the
plan references and sets ``Network.faults``; the data path then pays
one attribute check per transmission start/finish *on those nodes
only*; the event schedule gains the plan's own timers and nothing else.
Going first of its instant, a handler that touches a node's queue takes
in what was parked for *strictly before* it (``settle(-inf)``), acts,
and wakes the node under the same bound (``docs/simulator.md``).

Trace events (all behind ``tracer.enabled``): ``link_down``,
``link_up``, ``node_pause``, ``node_resume``, ``node_restart``,
``fault_drop``, ``session_down``, ``session_up``.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.faults.plan import (
    RECOVERY_DROP_EXPIRED,
    FaultPlan,
    LinkDown,
    NodePause,
    NodeRestart,
    PacketCorruption,
    PacketLoss,
    SessionOutage,
)
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    import random

    from repro.admission.controller import AdmissionController
    from repro.net.network import Network
    from repro.net.node import ServerNode
    from repro.net.session import Session

__all__ = [
    "PRIORITY_FAULT",
    "DROP_REASONS",
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

#: The drop reasons fault accounting distinguishes.
DROP_REASONS = ("loss", "corrupt", "expired", "flush")


class NodeFaultState:
    """Mutable fault state of one node, mutated only by fault timers.

    ``blocked`` folds ``link_up``/``paused`` into the single flag the
    transmission path checks; :meth:`transmit_verdict` draws the
    loss/corruption coins for one departing packet.
    """

    __slots__ = ("node_name", "rng", "link_up", "paused", "blocked",
                 "loss_rate", "corrupt_rate", "drops", "restarts")

    def __init__(self, node_name: str, rng: "random.Random") -> None:
        self.node_name = node_name
        self.rng = rng
        self.link_up = True
        self.paused = False
        #: ``(not link_up) or paused`` — kept materialized because the
        #: node checks it once per transmission attempt.
        self.blocked = False
        self.loss_rate = 0.0
        self.corrupt_rate = 0.0
        #: reason -> session id -> packets dropped at this node.
        self.drops: Dict[str, Dict[str, int]] = {}
        self.restarts = 0

    def update_blocked(self) -> None:
        self.blocked = (not self.link_up) or self.paused

    def transmit_verdict(self, packet: Packet) -> Optional[str]:
        """``"loss"``/``"corrupt"``/``None`` for one departing packet.

        Coins are drawn only while a window is active, so a plan whose
        windows never open consumes no randomness at all and the node's
        stream stays aligned with a fault-free run.
        """
        rng = self.rng
        rate = self.loss_rate
        if rate > 0.0 and rng.random() < rate:
            return "loss"
        rate = self.corrupt_rate
        if rate > 0.0 and rng.random() < rate:
            return "corrupt"
        return None

    def count_drop(self, reason: str, session_id: str) -> None:
        per_session = self.drops.get(reason)
        if per_session is None:
            per_session = self.drops[reason] = {}
        per_session[session_id] = per_session.get(session_id, 0) + 1

    def dropped(self, reason: Optional[str] = None) -> int:
        """Total fault drops at this node (optionally one reason)."""
        reasons = (reason,) if reason is not None else tuple(self.drops)
        return sum(sum(self.drops.get(r, {}).values()) for r in reasons)


class FaultInjector:
    """Applies a :class:`FaultPlan` to one network, deterministically.

    Parameters
    ----------
    plan:
        The declarative fault schedule.
    controller:
        Optional :class:`~repro.admission.controller.AdmissionController`;
        required when the plan contains session outages and the
        recovering session must pass admission again (re-admission uses
        :meth:`~repro.admission.controller.AdmissionController.readmit`).
    session_factory:
        ``(network, session_id) -> Session`` building a *fresh*,
        unregistered session object for re-admission (a torn-down
        session's counters and policies are gone; recovery is a new
        call with the same id).  Required when the plan has session
        outages.
    source_factory:
        Optional ``(network, session) -> None`` attaching and starting
        the recovered session's traffic source(s).
    admit_options:
        Keyword options forwarded to ``controller.readmit`` (e.g.
        ``class_number=1``).
    """

    def __init__(self, plan: FaultPlan, *,
                 controller: Optional["AdmissionController"] = None,
                 session_factory: Optional[
                     Callable[["Network", str], "Session"]] = None,
                 source_factory: Optional[
                     Callable[["Network", "Session"], None]] = None,
                 admit_options: Optional[Dict[str, object]] = None
                 ) -> None:
        self.plan = plan
        self.controller = controller
        self.session_factory = session_factory
        self.source_factory = source_factory
        self.admit_options = dict(admit_options or {})
        self.network: Optional["Network"] = None
        #: Node name -> armed fault state (only nodes the plan names).
        self.states: Dict[str, NodeFaultState] = {}
        #: Completed outage windows: (kind, target, start, end).  Kind
        #: is ``"link"``, ``"pause"``, or ``"session"``.
        self.outages: List[Tuple[str, str, float, float]] = []
        #: (time, session id, "down"/"up") in occurrence order.
        self.session_events: List[Tuple[float, str, str]] = []
        self.re_admissions = 0
        #: (node, session id) -> packets too late for eq. 9: A clamped to 0.
        self.hold_misses: Dict[Tuple[str, str], int] = {}
        self._outage_started: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, network: "Network") -> "FaultInjector":
        """Arm the plan on ``network``: create states, schedule timers.

        Must be called once, before the run; all fault instants must be
        at or after the network clock's current value.
        """
        if self.network is not None:
            raise SimulationError(
                "FaultInjector.install() called twice; build a fresh "
                "injector per run")
        plan = self.plan
        if plan.session_outages and self.session_factory is None:
            raise ConfigurationError(
                "plan has session outages but no session_factory was "
                "given; recovery needs a way to rebuild the session")
        missing = [name for name in plan.nodes_referenced()
                   if name not in network.nodes]
        if missing:
            raise ConfigurationError(
                f"fault plan references unknown nodes {missing}")
        self.network = network
        network.faults = self
        for name in plan.nodes_referenced():
            rng = network.streams.stream(
                f"{plan.rng_namespace}.{name}")
            state = NodeFaultState(name, rng)
            self.states[name] = state
            network.nodes[name].faults = state

        sim = network.sim
        for down in plan.link_downs:
            sim.schedule_at(down.down_at, self._link_down, down,
                            priority=PRIORITY_FAULT)
            sim.schedule_at(down.up_at, self._link_up, down,
                            priority=PRIORITY_FAULT)
        for loss in plan.losses:
            sim.schedule_at(loss.start, self._set_loss_rate,
                            loss.node, loss.rate,
                            priority=PRIORITY_FAULT)
            sim.schedule_at(loss.stop, self._set_loss_rate,
                            loss.node, 0.0, priority=PRIORITY_FAULT)
        for corruption in plan.corruptions:
            sim.schedule_at(corruption.start, self._set_corrupt_rate,
                            corruption.node, corruption.rate,
                            priority=PRIORITY_FAULT)
            sim.schedule_at(corruption.stop, self._set_corrupt_rate,
                            corruption.node, 0.0,
                            priority=PRIORITY_FAULT)
        for pause in plan.node_pauses:
            sim.schedule_at(pause.pause_at, self._node_pause, pause,
                            priority=PRIORITY_FAULT)
            sim.schedule_at(pause.resume_at, self._node_resume, pause,
                            priority=PRIORITY_FAULT)
        for restart in plan.node_restarts:
            sim.schedule_at(restart.at, self._node_restart, restart,
                            priority=PRIORITY_FAULT)
        for outage in plan.session_outages:
            sim.schedule_at(outage.down_at, self._session_down, outage,
                            priority=PRIORITY_FAULT)
            sim.schedule_at(outage.up_at, self._session_up, outage,
                            priority=PRIORITY_FAULT)
        return self

    def _node(self, name: str) -> "ServerNode":
        assert self.network is not None
        return self.network.nodes[name]

    # ------------------------------------------------------------------
    # Link faults
    # ------------------------------------------------------------------
    def _link_down(self, spec: LinkDown) -> None:
        network = self.network
        assert network is not None
        state = self.states[spec.node]
        state.link_up = False
        state.update_blocked()
        self._outage_started[("link", spec.node)] = network.sim.now
        tracer = network.tracer
        if tracer.enabled:
            tracer.emit(network.sim.now, "link_down", node=spec.node)

    def _link_up(self, spec: LinkDown) -> None:
        network = self.network
        assert network is not None
        now = network.sim.now
        node = self._node(spec.node)
        node.settle(-inf)  # still blocked: the outage's arrivals queue
        state = self.states[spec.node]
        state.link_up = True
        state.update_blocked()
        self._close_outage("link", spec.node, now)
        tracer = network.tracer
        if tracer.enabled:
            tracer.emit(now, "link_up", node=spec.node,
                        policy=spec.on_recovery)
        if spec.on_recovery == RECOVERY_DROP_EXPIRED:
            for packet in node.scheduler.drop_expired(now):
                node.fault_drop(packet, "expired", release_buffer=True)
        node.wakeup(-inf)

    # ------------------------------------------------------------------
    # Loss / corruption windows
    # ------------------------------------------------------------------
    def _set_loss_rate(self, node_name: str, rate: float) -> None:
        self.states[node_name].loss_rate = rate

    def _set_corrupt_rate(self, node_name: str, rate: float) -> None:
        self.states[node_name].corrupt_rate = rate

    def corrupt_dropped(self, packet: Packet) -> None:
        """A corrupted packet reached the next hop or sink; discard it.

        Accounting lands at the node that *transmitted* the packet (the
        corruption happened on its link); the buffer bits were already
        released at transmission completion.
        """
        node = self._node(packet.session.node_at(packet.hop_index))
        node.fault_drop(packet, "corrupt", release_buffer=False)

    # ------------------------------------------------------------------
    # Node faults
    # ------------------------------------------------------------------
    def _node_pause(self, spec: NodePause) -> None:
        network = self.network
        assert network is not None
        state = self.states[spec.node]
        state.paused = True
        state.update_blocked()
        self._outage_started[("pause", spec.node)] = network.sim.now
        tracer = network.tracer
        if tracer.enabled:
            tracer.emit(network.sim.now, "node_pause", node=spec.node)

    def _node_resume(self, spec: NodePause) -> None:
        network = self.network
        assert network is not None
        now = network.sim.now
        node = self._node(spec.node)
        node.settle(-inf)  # still blocked: the pause's arrivals queue
        state = self.states[spec.node]
        state.paused = False
        state.update_blocked()
        self._close_outage("pause", spec.node, now)
        tracer = network.tracer
        if tracer.enabled:
            tracer.emit(now, "node_resume", node=spec.node)
        node.wakeup(-inf)

    def _node_restart(self, spec: NodeRestart) -> None:
        network = self.network
        assert network is not None
        now = network.sim.now
        node = self._node(spec.node)
        state = self.states[spec.node]
        state.restarts += 1
        node.settle(-inf)
        flushed = node.scheduler.flush(now)
        tracer = network.tracer
        if tracer.enabled:
            tracer.emit(now, "node_restart", node=spec.node,
                        flushed=len(flushed))
        # A crash loses the packet on the link too: abort the in-flight
        # transmission (cancelling its completion event) *before* the
        # queued flush drops, so trace order is tx-abort then flush and
        # the tx bookkeeping can never go stale.
        node.abort_transmission("flush")
        for packet in flushed:
            node.fault_drop(packet, "flush", release_buffer=True)
        node.wakeup(-inf)  # idle: the next parked arrival is an event

    # ------------------------------------------------------------------
    # Session faults
    # ------------------------------------------------------------------
    def _session_down(self, spec: SessionOutage) -> None:
        network = self.network
        assert network is not None
        now = network.sim.now
        session = network.sessions.get(spec.session)
        if session is None:
            raise SimulationError(
                f"session outage for {spec.session!r} fired but the "
                f"session is not registered (already removed?)")
        for source in network.sources:
            if getattr(source, "session", None) is session:
                source.stop()
        if self.controller is not None:
            self.controller.release(session)
        network.remove_session(spec.session, keep_sink=True)
        self._outage_started[("session", spec.session)] = now
        self.session_events.append((now, spec.session, "down"))
        tracer = network.tracer
        if tracer.enabled:
            tracer.emit(now, "session_down", session=spec.session)

    def _session_up(self, spec: SessionOutage) -> None:
        network = self.network
        assert network is not None
        # The old call may still be draining in-flight packets; wait
        # for the drain-then-forget machinery to finish so re-admission
        # never collides with stale per-node state.  The callback runs
        # at the drain instant, which is itself a deterministic event.
        network.notify_when_drained(spec.session,
                                    lambda: self._readmit(spec))

    def _readmit(self, spec: SessionOutage) -> None:
        network = self.network
        assert network is not None
        assert self.session_factory is not None
        now = network.sim.now
        session = self.session_factory(network, spec.session)
        if self.controller is not None:
            self.controller.readmit(session, **self.admit_options)
        network.add_session(session, keep_samples=False)
        if self.source_factory is not None:
            self.source_factory(network, session)
        self.re_admissions += 1
        self._close_outage("session", spec.session, now)
        self.session_events.append((now, spec.session, "up"))
        tracer = network.tracer
        if tracer.enabled:
            tracer.emit(now, "session_up", session=spec.session)

    # ------------------------------------------------------------------
    # Outage bookkeeping
    # ------------------------------------------------------------------
    def _close_outage(self, kind: str, target: str, end: float) -> None:
        start = self._outage_started.pop((kind, target), None)
        if start is not None:
            self.outages.append((kind, target, start, end))

    def finalize(self, horizon: float) -> None:
        """Close outage windows still open when the run stopped."""
        for (kind, target), start in sorted(self._outage_started.items()):
            self.outages.append((kind, target, start, horizon))
        self._outage_started.clear()

    def outage_seconds(self, kind: Optional[str] = None,
                       target: Optional[str] = None) -> float:
        """Total closed-outage seconds, optionally filtered."""
        return sum(end - start
                   for k, t, start, end in self.outages
                   if (kind is None or k == kind)
                   and (target is None or t == target))
