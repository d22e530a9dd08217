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
   order (ties FIFO), from the exact binary heap of
   :class:`~repro.sched.base.DeadlineScheduler`.  The paper's O(1)
   approximate queue from [6] is not reproduced: see
   ``docs/limitations.md``.

The scheduler tracks its own saturation invariant: under correct
admission control, ``F̂ < F + L_MAX/C`` for every packet, i.e. the
observed lateness stays below one maximum packet transmission time.

Per-session state is four float columns of the network's
:class:`~repro.net.session_table.SessionTable`, indexed by the
packet's dense ``session.slot``: ``K_{i-1}`` and the session's policy
at this node — every policy the paper uses is affine
(``d(L) = slope·L + offset``), so slope, offset and ``d_max`` replace
the policy object entirely.  The recursions run in Python floats.
"""

from __future__ import annotations

from math import inf, nan
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.base import DeadlineScheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.session_table import SessionTable

__all__ = ["LeaveInTime"]

#: Tolerance for floating-point noise when validating non-negative
#: holding times (the paper proves A >= 0 exactly).
_HOLD_EPSILON = 1e-9


class LeaveInTime(DeadlineScheduler):
    """Leave-in-Time scheduler for one server node."""

    # ------------------------------------------------------------------
    # Scheduler contract
    # ------------------------------------------------------------------
    def use_session_table(self, table: "SessionTable") -> None:
        group = table.group()
        #: ``K_{i-1}`` of eq. 11.  The -inf fill makes ``max(E, K)``
        #: return ``E`` on a session's first packet: ``K_0 = t_1``.
        self._k_prev = group.add("k_prev", -inf)
        #: The session's policy at this node, ``d(L) = slope·L +
        #: offset``, and its ``d_max``; a NaN slope marks a row whose
        #: policy has not been resolved yet.
        self._d_slope = group.add("d_slope", nan)
        self._d_offset = group.add("d_offset", 0.0)
        self._d_max = group.add("d_max", 0.0)

    def _resolve(self, session: Session, slot: int) -> float:
        """Write the session's policy here into its row; returns the slope.

        The admission-assigned policy, else VirtualClock's row written
        directly (at 10⁵ sessions most arrivals are first packets).  Still
        at the first packet: admission may assign one any time before it.
        """
        policy = session.policy_for(self.node.name)
        if policy is None:  # the offset column's fill is already its 0
            slope = self._d_slope[slot] = 1.0 / session.rate
            self._d_max[slot] = slope * session.l_max
            return slope
        slope = self._d_slope[slot] = policy.slope
        offset = self._d_offset[slot] = policy.offset
        self._d_max[slot] = slope * policy.l_max + offset
        return slope

    def on_arrival(self, packet: Packet, now: float) -> None:
        session = packet.session
        slot = session.slot
        slope = self._d_slope[slot]
        if slope != slope:  # NaN: the session's first packet here
            slope = self._resolve(session, slot)

        # Eligibility time (eq. 6-8): the holding time in the header is
        # zero at the first node and for sessions without jitter control.
        if session.jitter_control and packet.hop_index > 0:
            holding = packet.holding_time
            if holding < -_HOLD_EPSILON:
                raise SimulationError(
                    f"negative holding time {holding} for "
                    f"{session.id}#{packet.seq} at {self.node.name}")
            eligible_at = now + max(0.0, holding)
        else:
            eligible_at = now
        packet.eligible_time = eligible_at

        # Deadline recursions (eq. 10-11).
        k_prev = self._k_prev[slot]
        base = eligible_at if eligible_at > k_prev else k_prev
        length = packet.length
        packet.deadline = base + (slope * length + self._d_offset[slot])
        self._k_prev[slot] = base + length / session.rate

        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(now, "deadline", self.node.name, session.id,
                        packet.seq, eligible=eligible_at,
                        deadline=packet.deadline, k=self._k_prev[slot])

        if eligible_at <= now:
            self._push(packet)
        else:
            self._hold(packet, eligible_at)

    def _release(self, packet: Packet) -> None:
        """A delay regulator hold expired; queue the packet for service."""
        self._push(packet)

    def on_transmit_complete(self, packet: Packet, now: float) -> None:
        late = now - packet.deadline  # Scheduler.on_transmit_complete, inline
        self._late_count += 1
        if late > self._late_max:
            self._late_max = late
        self._late_sum += late
        self._late_sq += late * late
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
        slot = session.slot
        d_i = self._d_slope[slot] * packet.length + self._d_offset[slot]
        holding = (packet.deadline + node.network.l_max / node.link.capacity
                   - now + self._d_max[slot] - d_i)
        if holding < -_HOLD_EPSILON:
            injector = node.network.faults
            if injector is None:
                raise SimulationError(
                    f"holding-time computation went negative ({holding}) "
                    f"for {session.id}#{packet.seq} at {node.name}; "
                    "this indicates scheduler saturation")
            # An outage saturates: A = 0, as a switch would, and a miss.
            key = (node.name, session.id)
            injector.hold_misses[key] = injector.hold_misses.get(key, 0) + 1
        packet.holding_time = max(0.0, holding)

    def forget_session(self, session_id: str) -> None:
        """Flush the regulator holds of a session being torn down.

        Packets still in the session's delay regulator join the
        eligible queue now, so teardown can never strand one.  The
        table resets the session's row when its slot is released;
        :meth:`repro.net.network.Network.remove_session` defers this
        call until the session has fully drained.
        """
        held = self._unhold(session_id)
        if not held:
            return
        node = self.node
        tracer = self.tracer
        for packet in held:
            self._push(packet)
            if tracer.enabled:
                tracer.emit(self.sim.now, "flush", node.name, session_id,
                            packet.seq)
        self._wake_node()
