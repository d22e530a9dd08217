"""The Leave-in-Time service discipline (the paper's core contribution).

Final-version algorithm (paper §2):

1. Each arriving packet gets an **eligibility time**

   * ``E = t``                       without delay-jitter control (eq. 6)
   * ``E = t + A``                   with delay-jitter control     (eq. 7)

   where the holding time ``A`` was computed by the *upstream* node at
   transmission completion and carried in the packet header (eq. 8-9):

   * ``A = 0``                                            at node 1
   * ``A = F' + L_MAX/C' − F̂' + d'_max − d'_i``           at node n > 1

   (primes denote upstream-node quantities).

2. Each packet gets a **transmission deadline** through the coupled
   recursions (eq. 10-11):

   * ``F_i = max(E_i, K_{i-1}) + d_i``
   * ``K_i = max(E_i, K_{i-1}) + L_i / r_s``,   ``K_0 = t_1``

   ``d_i`` comes from the session's per-node
   :class:`~repro.sched.policy.DelayPolicy` (assigned by admission
   control); the default ``d_i = L_i/r_s`` makes the discipline
   identical to VirtualClock.

3. Eligible packets from all sessions are served in increasing deadline
   order (ties FIFO).

The scheduler tracks its own saturation invariant: under correct
admission control, ``F̂ < F + L_MAX/C`` for every packet, i.e. the
observed lateness stays below one maximum packet transmission time.

Per-session state (``k_prev``, the resolved affine policy, the
initialization flag) has two backends.  The default keeps one
:class:`_SessionState` object per session; under
``Network(state_backend="soa")`` the same quantities live in float64
columns of the network's
:class:`~repro.net.session_table.SessionTable`, indexed by the
packet's dense ``session.slot`` — every policy the paper uses is
affine (``d(L) = slope·L + offset``), so three columns replace the
policy object entirely.  Scalars are read with ``ndarray.item`` and
the recursions computed in Python floats, keeping dispatch digests
bit-identical across backends (``tests/sim/test_state_backends.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import SimulationError
from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.base import Scheduler
from repro.sched.calendar_queue import (DeadlineQueue, HeapDeadlineQueue,
                                        drain_expired)
from repro.sched.policy import DelayPolicy, virtual_clock_policy
from repro.sim.events import Event
from repro.sim.kernel import PRIORITY_NORMAL

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.session_table import ColumnGroup, SessionTable

__all__ = ["LeaveInTime"]

#: Tolerance for floating-point noise when validating non-negative
#: holding times (the paper proves A >= 0 exactly).
_HOLD_EPSILON = 1e-9


class _SessionState:
    """Per-session, per-node scheduler state."""

    __slots__ = ("session", "policy", "k_prev", "initialized", "pending")

    def __init__(self, session: Session) -> None:
        self.session = session
        self.policy: Optional[DelayPolicy] = None
        self.k_prev = 0.0
        self.initialized = False
        #: Packets inside this session's delay regulator: seq ->
        #: (release event, packet). Teardown flushes these.
        self.pending: Dict[int, Tuple[Event, Packet]] = {}

    def resolve_policy(self, node_name: str) -> DelayPolicy:
        """Fetch the admission-assigned policy, defaulting to VirtualClock.

        Resolution is deferred to the first packet so admission control
        may run at any point before traffic starts.
        """
        if self.policy is None:
            session = self.session
            assigned = session.policy_for(node_name)
            if assigned is None:
                assigned = virtual_clock_policy(
                    session.rate, session.l_max, session.l_min)
            self.policy = assigned
        return self.policy


class LeaveInTime(Scheduler):
    """Leave-in-Time scheduler for one server node.

    Parameters
    ----------
    queue:
        The deadline queue implementation; defaults to the exact heap.
        Pass an :class:`~repro.sched.calendar_queue.ApproximateDeadlineQueue`
        to reproduce the paper's O(1) approximate variant.
    """

    def __init__(self, queue: Optional[DeadlineQueue] = None) -> None:
        super().__init__()
        self._eligible: DeadlineQueue = queue or HeapDeadlineQueue()
        #: The queue's two per-packet operations, bound once.
        self._push = self._eligible.push
        self._pop = self._eligible.pop
        self._sessions: Dict[str, _SessionState] = {}
        self._held = 0
        #: soa backend: recursion/policy columns in the network's
        #: SessionTable; None under the objects backend.
        self._soa: Optional["ColumnGroup"] = None
        self._table: Optional["SessionTable"] = None
        #: soa backend: regulator holds, keyed by slot.  The slot key
        #: is inserted at registration (value None until the first
        #: hold) so iteration order matches the objects backend's
        #: ``_sessions`` insertion order — flush order is load-bearing
        #: for deadline ties in the eligible heap.
        self._pending: Dict[int,
                            Optional[Dict[int,
                                          Tuple[Event, Packet]]]] = {}

    # ------------------------------------------------------------------
    # Scheduler contract
    # ------------------------------------------------------------------
    def use_session_table(self, table: "SessionTable") -> None:
        group = table.group()
        group.add("k_prev", 0.0)
        group.add("started", False, dtype="bool")
        group.add("resolved", False, dtype="bool")
        group.add("d_slope", 0.0)
        group.add("d_offset", 0.0)
        group.add("d_ceiling", 0.0)
        group.add("member", False, dtype="bool")
        self._soa = group
        self._table = table

    def _soa_admit(self, slot: int) -> None:
        """Mark a slot live at this scheduler (mirrors state creation)."""
        self._soa.member[slot] = True
        self._pending.setdefault(slot, None)

    def _soa_resolve(self, session: Session, slot: int) -> None:
        """Resolve the affine policy into the slot's three columns.

        The stored ``d_ceiling`` is ``policy.d_max`` computed once —
        the identical ``slope·l_max + offset`` IEEE product the objects
        path evaluates per call.
        """
        assigned = session.policy_for(self.node.name)
        if assigned is None:
            assigned = virtual_clock_policy(
                session.rate, session.l_max, session.l_min)
        soa = self._soa
        soa.d_slope[slot] = assigned.slope
        soa.d_offset[slot] = assigned.offset
        soa.d_ceiling[slot] = assigned.d_max
        soa.resolved[slot] = True

    def register_session(self, session: Session) -> None:
        if self._soa is None:
            self._sessions.setdefault(session.id,
                                      _SessionState(session))
            return
        slot = session.slot
        if slot < 0:
            raise SimulationError(
                f"session {session.id!r} has no session-table slot; "
                f"register sessions through Network.add_session under "
                f"the soa backend")
        if not self._soa.member.item(slot):
            self._soa_admit(slot)

    def on_arrival(self, packet: Packet, now: float) -> None:
        session = packet.session
        node = self.node
        soa = self._soa
        if soa is None:
            state = self._sessions.get(session.id)
            if state is None:
                state = _SessionState(session)
                self._sessions[session.id] = state
            policy = state.policy
            if policy is None:
                policy = state.resolve_policy(node.name)
        else:
            slot = session.slot
            if slot < 0:
                raise SimulationError(
                    f"packet of session {session.id!r} reached "
                    f"{node.name} without a session-table slot")
            if not soa.member.item(slot):
                self._soa_admit(slot)
            if not soa.resolved.item(slot):
                self._soa_resolve(session, slot)

        # Eligibility time (eq. 6-8): the holding time in the header is
        # zero at the first node and for sessions without jitter control.
        if session.jitter_control and packet.hop_index > 0:
            holding = packet.holding_time
            if holding < -_HOLD_EPSILON:
                raise SimulationError(
                    f"negative holding time {holding} for "
                    f"{session.id}#{packet.seq} at {node.name}")
            eligible_at = now + max(0.0, holding)
        else:
            eligible_at = now
        packet.eligible_time = eligible_at

        # Deadline recursions (eq. 10-11) with K_0 = t_1.  The soa
        # branch reads scalars with .item() and computes in Python
        # floats: the same operations as the objects branch, so the
        # resulting deadlines are bit-identical.
        if soa is None:
            if not state.initialized:
                state.k_prev = now
                state.initialized = True
            base = eligible_at if eligible_at > state.k_prev \
                else state.k_prev
            length = packet.length
            packet.deadline = base + (policy.slope * length
                                      + policy.offset)
            k_next = state.k_prev = base + length / session.rate
        else:
            if not soa.started.item(slot):
                k_prev = now
                soa.started[slot] = True
            else:
                k_prev = soa.k_prev.item(slot)
            base = eligible_at if eligible_at > k_prev else k_prev
            packet.deadline = base + (
                soa.d_slope.item(slot) * packet.length
                + soa.d_offset.item(slot))
            k_next = base + packet.length / session.rate
            soa.k_prev[slot] = k_next

        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(now, "deadline", node=node.name,
                        session=session.id, packet=packet.seq,
                        eligible=eligible_at, deadline=packet.deadline,
                        k=k_next)
        san = self.sanitizer
        if san is not None:
            san.on_lit_labels(node.name, session.id,
                              packet.deadline, k_next, now)

        if eligible_at <= now:
            self._push(packet)
        else:
            self._held += 1
            # Tie-break: NORMAL, so a release coinciding with the node
            # transmitter's wake (or a completion) resolves by insertion
            # order — the hold was scheduled at arrival, before any
            # same-instant completion, so the release runs first and the
            # transmitter sees the packet. Pinned explicitly because the
            # order is load-bearing for deadline ties.
            event = self.sim.schedule_at(eligible_at, self._release,
                                         packet, priority=PRIORITY_NORMAL)
            entry = (event, packet)
            if soa is None:
                state.pending[packet.seq] = entry
            else:
                holds = self._pending.get(slot)
                if holds is None:
                    holds = self._pending[slot] = {}
                holds[packet.seq] = entry

    def _release(self, packet: Packet) -> None:
        """A delay regulator hold expired; queue the packet for service."""
        session = packet.session
        if self._soa is None:
            state = self._sessions.get(session.id)
            if state is not None:
                state.pending.pop(packet.seq, None)
        else:
            holds = self._pending.get(session.slot)
            if holds is not None:
                holds.pop(packet.seq, None)
        self._held -= 1
        self._push(packet)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, "eligible", node=self.node.name,
                        session=packet.session.id, packet=packet.seq)
        self._wake_node()

    def next_packet(self, now: float) -> Optional[Packet]:
        packet = self._pop()
        san = self.sanitizer
        if san is not None and packet is not None:
            san.on_lit_serve(self.node.name, packet, now)
        return packet

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        self.lateness.observe(now - packet.deadline)
        session = packet.session
        if (not session.jitter_control
                or packet.hop_index == len(session.route) - 1):
            packet.holding_time = 0.0
            return
        # Holding time for the next node (eq. 9). All quantities are
        # this node's: F (deadline), F̂ (actual finish = now), d_max and
        # d_i from the session's policy here, L_MAX network-wide, C of
        # this node's outgoing link.
        node = self.node
        length = packet.length
        d_max = policy = None
        soa = self._soa
        if soa is None:
            state = self._sessions.get(session.id)
            if state is not None:
                policy = state.policy
                if policy is None:
                    policy = state.resolve_policy(node.name)
        else:
            slot = session.slot
            if slot >= 0 and soa.member.item(slot):
                if not soa.resolved.item(slot):
                    self._soa_resolve(session, slot)
                d_max = soa.d_ceiling.item(slot)
                d_i = (soa.d_slope.item(slot) * length
                       + soa.d_offset.item(slot))
        if d_max is None:
            if policy is None:
                # Session torn down while this packet was in flight:
                # relabel from the session's own assignment (VirtualClock
                # default; never cached into a possibly recycled slot) so
                # draining packets still carry a consistent downstream
                # holding time instead of raising KeyError.
                policy = session.policy_for(node.name) \
                    or virtual_clock_policy(session.rate, session.l_max,
                                            session.l_min)
            slope = policy.slope
            offset = policy.offset
            d_max = slope * policy.l_max + offset
            d_i = slope * length + offset
        holding = (packet.deadline + node.network.l_max / node.link.capacity
                   - now + d_max - d_i)
        if holding < -_HOLD_EPSILON:
            raise SimulationError(
                f"holding-time computation went negative ({holding}) for "
                f"{session.id}#{packet.seq} at {node.name}; "
                "this indicates scheduler saturation")
        packet.holding_time = max(0.0, holding)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        return len(self._eligible) + self._held

    @property
    def held(self) -> int:
        """Packets currently inside delay regulators."""
        return self._held

    def forget_session(self, session_id: str) -> None:
        """Drop per-session state, flushing any regulator holds.

        Packets still sitting in the session's delay regulator are
        released immediately (their hold events are cancelled and they
        join the eligible queue now) so teardown can never strand a
        packet or leak the ``_held`` counter.  Packets already eligible
        or in transmission drain normally:
        :meth:`on_transmit_complete` relabels them with the session's
        own policy when the state is gone.  Prefer tearing sessions
        down through :meth:`repro.net.network.Network.remove_session`,
        which defers this call until the session has fully drained.
        """
        san = self.sanitizer
        if san is not None:
            # A re-admitted session restarts its K/F recursion from the
            # current clock; drop the stale monotonicity baseline.
            san.on_lit_forget(self.node.name, session_id)
        if self._soa is not None:
            slot = self._table.slot(session_id)
            if slot < 0:
                return
            holds = self._pending.pop(slot, None)
            self._soa.reset_slot(slot)
            if not holds:
                return
            tracer = self.tracer
            eligible = self._eligible
            for event, packet in holds.values():  # repro: disable=nondeterministic-iteration -- holds is keyed by monotonically increasing seq and dicts preserve insertion order, so this iteration is deterministic
                event.cancel()
                self._held -= 1
                eligible.push(packet)
                if tracer.enabled:
                    tracer.emit(self.sim.now, "flush",
                                node=self.node.name, session=session_id,
                                packet=packet.seq)
            self._wake_node()
            return
        state = self._sessions.pop(session_id, None)
        if state is None or not state.pending:
            return
        tracer = self.tracer
        eligible = self._eligible
        pending = state.pending
        for event, packet in pending.values():  # repro: disable=nondeterministic-iteration -- pending is keyed by monotonically increasing seq and dicts preserve insertion order, so this iteration is deterministic
            event.cancel()
            self._held -= 1
            eligible.push(packet)
            if tracer.enabled:
                tracer.emit(self.sim.now, "flush", node=self.node.name,
                            session=session_id, packet=packet.seq)
        pending.clear()
        self._wake_node()

    def session_state(self, session_id: str) -> _SessionState:
        """Expose per-session state for tests and diagnostics.

        Objects backend only: the soa backend keeps these quantities in
        table columns, not per-session objects.
        """
        if self._soa is not None:
            raise SimulationError(
                "session_state() is an objects-backend diagnostic; "
                "under state_backend='soa' read the scheduler's column "
                "group instead")
        return self._sessions[session_id]

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def flush(self, now: float) -> List[Packet]:
        """Node restart: empty the eligible queue *and* the regulators.

        Unlike :meth:`forget_session`, per-session deadline state
        (``k_prev``, resolved policy) survives — the session is still
        admitted; only its buffered packets are lost.  Hold events are
        cancelled through the same ``pending`` map the drain-then-forget
        machinery uses, so ``_held`` can never leak.
        """
        flushed: List[Packet] = []
        if self._soa is not None:
            for holds in self._pending.values():  # repro: disable=nondeterministic-iteration -- slot keys are inserted at registration time, mirroring the objects backend's _sessions insertion order, so flush order is identical across backends
                if not holds:
                    continue
                for event, packet in holds.values():
                    event.cancel()
                    self._held -= 1
                    flushed.append(packet)
                holds.clear()
        else:
            for state in self._sessions.values():
                pending = state.pending
                if not pending:
                    continue
                for event, packet in pending.values():
                    event.cancel()
                    self._held -= 1
                    flushed.append(packet)
                pending.clear()
        while True:
            packet = self._eligible.pop()
            if packet is None:
                break
            flushed.append(packet)
        return flushed

    def drop_expired(self, now: float) -> List[Packet]:
        """Link recovery: discard eligible packets whose deadline passed.

        Held packets are untouched — their eligibility (and therefore
        deadline) lies at or beyond their release instant, so they
        cannot have expired yet.
        """
        return drain_expired(self._eligible, now)
