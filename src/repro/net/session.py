"""Sessions: connection-oriented flows with reserved rates and routes.

A session is the unit the paper reasons about: it reserves a rate
``r_s`` at every server along its fixed route, declares a maximum packet
length ``L_max,s``, and optionally requests delay-jitter control (which
gives it a delay regulator at every node after the first).

The per-node service parameter ``d_{i,s}^n`` is *not* part of the
session's traffic characterization — it is assigned by admission
control (see :mod:`repro.admission`) and stored here as one
:class:`~repro.sched.policy.DelayPolicy` per node. When no policy is
assigned, schedulers fall back to the VirtualClock value
``d_{i,s} = L_{i,s} / r_s`` (admission control procedure 1 with one
class and ``ε = 0``).
"""

from __future__ import annotations

from math import inf
from typing import (Dict, Iterable, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.policy import DelayPolicy

__all__ = ["Session"]


def _failed_field(session: "Session") -> str:
    """The field ``Session.__init__`` was converting when it failed: the
    first one not stored yet."""
    for name in ("rate", "route", "l_max"):
        if not hasattr(session, name):
            return name
    return "l_min"


class Session:
    """A flow with a reserved rate, a route, and service options.

    Parameters
    ----------
    session_id:
        Unique name, e.g. ``"onoff-aj-3"``.
    rate:
        Reserved rate ``r_s`` in bit/s; positive and finite.
    route:
        Node names in traversal order (the paper's servers 1..N).
    l_max:
        Declared maximum packet length in bits (``L_max,s``). Sources
        must not exceed it; schedulers may rely on it.
    l_min:
        Minimum packet length in bits, used only by the jitter bound
        (δ term). Defaults to ``l_max`` (fixed-size packets, as in all
        the paper's experiments).
    jitter_control:
        Whether the session uses delay regulators (non-work-conserving
        holding) at nodes 2..N.
    token_bucket:
        Optional ``(r, b0)`` conformance declaration used by the
        analytical bound helpers (paper eq. 14). Purely descriptive —
        enforcement/shaping is a traffic-layer concern.
    monitor_buffer:
        When true, every node on the route samples this session's
        per-node buffer occupancy at each packet arrival (the paper's
        Figures 12-13 measurement).

    Notes
    -----
    Arguments that are not numbers (or node names) are refused with a
    :class:`~repro.errors.ConfigurationError` naming the field.
    Sessions are ``__slots__``-ed and their (usually empty) policy map
    is allocated lazily: the heavy-traffic experiments keep 10^5-10^6
    live ``Session`` objects, and the instance dict plus an empty
    ``delay_policies`` dict per session used to double their footprint
    (see ``docs/performance.md``).  A registered session carries its
    sink, so delivery reads no id-keyed map.
    """

    __slots__ = ("id", "rate", "route", "l_max", "l_min",
                 "jitter_control", "token_bucket", "monitor_buffer",
                 "_delay_policies", "packets_sent", "slot", "sink")

    def __init__(self, session_id: str, rate: float,
                 route: Sequence[str], *, l_max: float,
                 l_min: Optional[float] = None,
                 jitter_control: bool = False,
                 token_bucket: Optional[tuple] = None,
                 monitor_buffer: bool = False) -> None:
        # ``float(+x)``: ``+`` refuses strings ``float`` would parse, and
        # ``float`` returns a float as is, so sessions share one rate.
        # Each comparison fails NaN, ±inf, 0 and negatives alike.
        try:
            self.rate = rate_f = float(+rate)
            if not 0.0 < rate_f < inf:
                raise ConfigurationError(
                    f"session {session_id!r}: rate must be positive and "
                    f"finite, got {rate}")
            nodes = tuple(route or ())  # a tuple is shared, not copied
            if not nodes:
                raise ConfigurationError(
                    f"session {session_id!r}: route must name at least "
                    f"one node")
            if len(nodes) > 1 and len(set(nodes)) != len(nodes):
                raise ConfigurationError(
                    f"session {session_id!r}: route visits a node "
                    f"twice: {route}")
            self.route = nodes
            self.l_max = l_max_f = float(+l_max)
            if not 0.0 < l_max_f < inf:
                raise ConfigurationError(
                    f"session {session_id!r}: l_max must be positive and "
                    f"finite, got {l_max}")
            self.l_min = l_max_f if l_min is None else float(+l_min)
            # As given: two ints that round to one float still order.
            if l_min is not None and not 0 < l_min <= l_max:
                raise ConfigurationError(
                    f"session {session_id!r}: need 0 < l_min <= l_max, "
                    f"got l_min={l_min}, l_max={l_max}")
        except (TypeError, OverflowError):
            field = _failed_field(self)
            want = "node names" if field == "route" else "a finite number"
            raise ConfigurationError(
                f"session {session_id!r}: {field} must be {want}, "
                f"got {locals()[field]!r}") from None
        self.id = session_id
        self.jitter_control = bool(jitter_control)
        self.token_bucket = token_bucket
        self.monitor_buffer = bool(monitor_buffer)
        #: Per-node delay policies assigned by admission control,
        #: keyed by node name; None until the first assignment (most
        #: sessions run on VirtualClock defaults and never allocate
        #: the dict). Read through :attr:`delay_policies`.
        self._delay_policies: Optional[Dict[str, "DelayPolicy"]] = None
        #: Number of packets injected so far (source bookkeeping).
        self.packets_sent = 0
        #: Dense slot in the owning network's
        #: :class:`~repro.net.session_table.SessionTable`, assigned by
        #: ``Network.add_sessions``; -1 before that, after a refused
        #: registration, and once the session has left and drained.
        self.slot = -1
        # ``sink`` (the :class:`~repro.net.sink.Sink` its packets reach)
        # is set by ``Network.add_sessions``, not here: a session that
        # was never registered delivers nothing.  None once it has left
        # and drained.

    @classmethod
    def population(cls, ids: Iterable[str], rate: float,
                   route: Sequence[str], *, l_max: float,
                   **options) -> Tuple["Session", ...]:
        """One session per id in ``ids``, all of one declaration.

        The first id's session is ``Session(id, rate, route,
        l_max=l_max, **options)``: every check runs once, and a refusal
        names that id.  Each other id gets a session that shares the
        first one's checked values, built without ``__init__``; slot
        for slot it equals the session ``Session(...)`` would build for
        it.  The heavy-traffic cells build 10^5 sessions this way
        (``docs/heavy_traffic.md``, "Set-up at 10⁵").  No ids, no
        sessions.
        """
        ids = iter(ids)
        for first in ids:
            break
        else:
            return ()
        head = cls(first, rate, route, l_max=l_max, **options)
        # The checked values, as locals: the loop stores each per id.
        rate, route = head.rate, head.route
        l_max, l_min = head.l_max, head.l_min
        jitter_control = head.jitter_control
        token_bucket, monitor_buffer = head.token_bucket, head.monitor_buffer
        new = object.__new__
        members = [head]
        append = members.append
        for session_id in ids:
            member = new(cls)
            member.id = session_id
            member.rate = rate
            member.route = route
            member.l_max = l_max
            member.l_min = l_min
            member.jitter_control = jitter_control
            member.token_bucket = token_bucket
            member.monitor_buffer = monitor_buffer
            member._delay_policies = None
            member.packets_sent = 0
            member.slot = -1
            append(member)
        return tuple(members)

    @property
    def delay_policies(self) -> Dict[str, "DelayPolicy"]:
        """Per-node policy map, created on first access."""
        if self._delay_policies is None:
            self._delay_policies = {}
        return self._delay_policies

    @property
    def hops(self) -> int:
        """Number of server nodes on the route (the paper's ``N``)."""
        return len(self.route)

    def node_at(self, hop_index: int) -> str:
        return self.route[hop_index]

    def is_last_hop(self, hop_index: int) -> bool:
        return hop_index == len(self.route) - 1

    def policy_for(self, node_name: str) -> Optional["DelayPolicy"]:
        """The delay policy admission control assigned at ``node_name``."""
        if self._delay_policies is None:
            return None
        return self._delay_policies.get(node_name)

    def set_policy(self, node_name: str, policy: "DelayPolicy") -> None:
        if node_name not in self.route:
            raise ConfigurationError(
                f"session {self.id!r} does not traverse node {node_name!r}")
        self.delay_policies[node_name] = policy

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        jitter = " jitter" if self.jitter_control else ""
        return (f"<Session {self.id} r={self.rate:g}bps "
                f"route={'-'.join(self.route)}{jitter}>")
