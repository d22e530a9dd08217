"""Declarative fault plans: what breaks, where, and when.

A :class:`FaultPlan` is pure data — a set of typed fault windows and
instants, validated at construction and serializable to/from JSON —
with **no** reference to live simulation objects.  Binding a plan to a
:class:`~repro.net.network.Network` is the job of
:class:`~repro.faults.injector.FaultInjector`, which turns every entry
into ordinary kernel events.  Keeping the plan declarative gives three
properties the reproduction needs:

* **Determinism** — a plan fully describes the disruption, so the same
  plan + the same master seed replays the same run, serially or across
  ``--workers`` shards (each sweep cell builds its own network and its
  own injector from the same plan data).
* **Shareability** — plans round-trip through JSON
  (:meth:`FaultPlan.to_json` / :meth:`FaultPlan.from_json`), so a
  failure scenario can be committed next to the experiment that uses
  it, or attached to a bug report.
* **Zero cost when empty** — an empty plan installs nothing; the data
  path stays byte-for-byte on the fault-free fast path (see
  ``tests/sim/test_dispatch_digest.py``).

Fault families (see ``docs/faults.md`` for the exact semantics):

* :class:`LinkDown` — the node's outgoing link is down in
  ``[down_at, up_at)``; transmissions cannot *start* while down (an
  in-flight transmission completes — the last bit was already being
  clocked).  ``on_recovery`` picks what happens to the backlog when the
  link returns: ``"requeue"`` serves it normally, ``"drop_expired"``
  discards packets whose local deadline passed during the outage.
* :class:`PacketLoss` / :class:`PacketCorruption` — seeded per-packet
  Bernoulli loss/corruption while transmitting onto the node's link
  during ``[start, stop)``.  Lost packets vanish at the transmitter;
  corrupted packets ride the link and are discarded on arrival at the
  next hop (the CRC-check model).
* :class:`NodePause` — the server stops serving in
  ``[pause_at, resume_at)``; arrivals still queue.
* :class:`NodeRestart` — at ``at``, the node's scheduler buffers are
  flushed (queued and regulator-held packets dropped), modelling a
  crash-restart that loses volatile state but keeps reservations.
* :class:`SessionOutage` — at ``down_at`` the session is torn down
  mid-call (source stopped, reservations released, network teardown via
  the drain-then-forget path); at ``up_at`` it is re-admitted through
  the admission controller and re-attached.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any, Dict, Tuple, Union

from repro.errors import ConfigurationError

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "RECOVERY_REQUEUE",
    "RECOVERY_DROP_EXPIRED",
    "LinkDown",
    "PacketLoss",
    "PacketCorruption",
    "NodePause",
    "NodeRestart",
    "SessionOutage",
    "FaultPlan",
]

#: Version stamped into serialized plans; bump on incompatible changes.
PLAN_SCHEMA_VERSION = 1

#: Link-recovery policies (see :class:`LinkDown`).
RECOVERY_REQUEUE = "requeue"
RECOVERY_DROP_EXPIRED = "drop_expired"
_RECOVERY_POLICIES = (RECOVERY_REQUEUE, RECOVERY_DROP_EXPIRED)


def _require_instant(owner: str, name: str, value: float) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value) or value < 0:
        raise ConfigurationError(
            f"{owner}: {name} must be a finite non-negative time, "
            f"got {value!r}")
    return float(value)


def _require_window(owner: str, start_name: str, start: float,
                    stop_name: str, stop: float) -> Tuple[float, float]:
    start = _require_instant(owner, start_name, start)
    stop = _require_instant(owner, stop_name, stop)
    if stop <= start:
        raise ConfigurationError(
            f"{owner}: need {start_name} < {stop_name}, "
            f"got [{start}, {stop})")
    return start, stop


def _require_rate(owner: str, rate: float) -> float:
    if not isinstance(rate, (int, float)) or isinstance(rate, bool) \
            or not math.isfinite(rate) or not 0.0 < rate <= 1.0:
        raise ConfigurationError(
            f"{owner}: rate must be in (0, 1], got {rate!r}")
    return float(rate)


def _require_name(owner: str, field_name: str, value: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigurationError(
            f"{owner}: {field_name} must be a non-empty string, "
            f"got {value!r}")
    return value


@dataclass(frozen=True)
class LinkDown:
    """Outgoing link of ``node`` is down during ``[down_at, up_at)``."""

    node: str
    down_at: float
    up_at: float
    on_recovery: str = RECOVERY_REQUEUE

    def __post_init__(self) -> None:
        _require_name("LinkDown", "node", self.node)
        _require_window("LinkDown", "down_at", self.down_at,
                        "up_at", self.up_at)
        if self.on_recovery not in _RECOVERY_POLICIES:
            raise ConfigurationError(
                f"LinkDown: on_recovery must be one of "
                f"{_RECOVERY_POLICIES}, got {self.on_recovery!r}")


@dataclass(frozen=True)
class PacketLoss:
    """Bernoulli(``rate``) loss on ``node``'s link in ``[start, stop)``."""

    node: str
    start: float
    stop: float
    rate: float

    def __post_init__(self) -> None:
        _require_name("PacketLoss", "node", self.node)
        _require_window("PacketLoss", "start", self.start,
                        "stop", self.stop)
        _require_rate("PacketLoss", self.rate)


@dataclass(frozen=True)
class PacketCorruption:
    """Bernoulli(``rate``) corruption on ``node``'s link in a window."""

    node: str
    start: float
    stop: float
    rate: float

    def __post_init__(self) -> None:
        _require_name("PacketCorruption", "node", self.node)
        _require_window("PacketCorruption", "start", self.start,
                        "stop", self.stop)
        _require_rate("PacketCorruption", self.rate)


@dataclass(frozen=True)
class NodePause:
    """``node`` stops serving during ``[pause_at, resume_at)``."""

    node: str
    pause_at: float
    resume_at: float

    def __post_init__(self) -> None:
        _require_name("NodePause", "node", self.node)
        _require_window("NodePause", "pause_at", self.pause_at,
                        "resume_at", self.resume_at)


@dataclass(frozen=True)
class NodeRestart:
    """``node`` crash-restarts at ``at``: scheduler buffers flushed."""

    node: str
    at: float

    def __post_init__(self) -> None:
        _require_name("NodeRestart", "node", self.node)
        _require_instant("NodeRestart", "at", self.at)


@dataclass(frozen=True)
class SessionOutage:
    """``session`` is torn down at ``down_at``, re-admitted at ``up_at``."""

    session: str
    down_at: float
    up_at: float

    def __post_init__(self) -> None:
        _require_name("SessionOutage", "session", self.session)
        _require_window("SessionOutage", "down_at", self.down_at,
                        "up_at", self.up_at)


#: JSON key -> (spec class, plan attribute), in serialization order.
_FAMILIES: Tuple[Tuple[str, type], ...] = (
    ("link_downs", LinkDown),
    ("losses", PacketLoss),
    ("corruptions", PacketCorruption),
    ("node_pauses", NodePause),
    ("node_restarts", NodeRestart),
    ("session_outages", SessionOutage),
)


@dataclass(frozen=True)
class FaultPlan:
    """A validated, immutable set of fault specifications.

    ``rng_namespace`` prefixes the named
    :class:`~repro.sim.rng.RandomStreams` substreams the injector draws
    loss/corruption coins from (one stream per node, e.g.
    ``"faults.n3"``), so a plan's stochastic faults never perturb the
    traffic sources' streams and two plans with different namespaces
    draw independently.
    """

    link_downs: Tuple[LinkDown, ...] = ()
    losses: Tuple[PacketLoss, ...] = ()
    corruptions: Tuple[PacketCorruption, ...] = ()
    node_pauses: Tuple[NodePause, ...] = ()
    node_restarts: Tuple[NodeRestart, ...] = ()
    session_outages: Tuple[SessionOutage, ...] = ()
    rng_namespace: str = "faults"

    def __post_init__(self) -> None:
        for key, spec_type in _FAMILIES:
            entries = tuple(getattr(self, key))
            object.__setattr__(self, key, entries)
            for entry in entries:
                if not isinstance(entry, spec_type):
                    raise ConfigurationError(
                        f"FaultPlan.{key} expects {spec_type.__name__} "
                        f"entries, got {entry!r}")
        _require_name("FaultPlan", "rng_namespace", self.rng_namespace)
        self._check_window_overlaps()

    def _check_window_overlaps(self) -> None:
        """Same-node windows of one family must not overlap.

        Overlapping windows would make the effective state at an
        instant depend on timer ordering; rejecting them keeps every
        plan's meaning unambiguous.
        """
        for key, windows in (
                ("link_downs", [(w.node, w.down_at, w.up_at)
                                for w in self.link_downs]),
                ("losses", [(w.node, w.start, w.stop)
                            for w in self.losses]),
                ("corruptions", [(w.node, w.start, w.stop)
                                 for w in self.corruptions]),
                ("node_pauses", [(w.node, w.pause_at, w.resume_at)
                                 for w in self.node_pauses]),
                ("session_outages", [(w.session, w.down_at, w.up_at)
                                     for w in self.session_outages])):
            ordered = sorted(windows)
            for (target_a, _, stop_a), (target_b, start_b, _) in zip(
                    ordered, ordered[1:]):
                if target_a == target_b and start_b < stop_a:
                    raise ConfigurationError(
                        f"FaultPlan.{key}: overlapping windows on "
                        f"{target_a!r}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the plan schedules nothing at all."""
        return not any(getattr(self, key) for key, _ in _FAMILIES)

    def nodes_referenced(self) -> Tuple[str, ...]:
        """Sorted node names any node-scoped fault touches."""
        names = {spec.node
                 for key, _ in _FAMILIES
                 for spec in getattr(self, key)
                 if hasattr(spec, "node")}
        return tuple(sorted(names))

    def sessions_referenced(self) -> Tuple[str, ...]:
        """Sorted session ids any session fault touches."""
        return tuple(sorted({spec.session
                             for spec in self.session_outages}))

    # ------------------------------------------------------------------
    # JSON (de)serialization
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """A plain-dict form, stable across runs (sorted, versioned)."""
        payload: Dict[str, Any] = {
            "schema": PLAN_SCHEMA_VERSION,
            "rng_namespace": self.rng_namespace,
        }
        for key, spec_type in _FAMILIES:
            entries = getattr(self, key)
            if entries:
                names = [f.name for f in fields(spec_type)]
                payload[key] = [
                    {name: getattr(entry, name) for name in names}
                    for entry in entries]
        return payload

    def dumps(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_json(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, payload: Union[str, Dict[str, Any]]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json` output (dict or string)."""
        if isinstance(payload, str):
            try:
                payload = json.loads(payload)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"FaultPlan.from_json: not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"FaultPlan.from_json expects a dict or JSON object, "
                f"got {type(payload).__name__}")
        schema = payload.get("schema")
        # ``type(...) is int``: ``True`` and ``1.0`` compare equal to 1.
        if type(schema) is not int or schema != PLAN_SCHEMA_VERSION:
            raise ConfigurationError(
                f"FaultPlan schema {schema!r}, expected "
                f"{PLAN_SCHEMA_VERSION}")
        known = {key for key, _ in _FAMILIES} | {"schema", "rng_namespace"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"FaultPlan.from_json: unknown keys {unknown}")
        kwargs: Dict[str, Any] = {
            "rng_namespace": payload.get("rng_namespace", "faults")}
        for key, spec_type in _FAMILIES:
            entries = payload.get(key, [])
            if not isinstance(entries, list):
                raise ConfigurationError(
                    f"FaultPlan.{key} must be a list, got "
                    f"{type(entries).__name__}")
            try:
                kwargs[key] = tuple(spec_type(**entry)
                                    for entry in entries)
            except TypeError as exc:
                raise ConfigurationError(
                    f"FaultPlan.{key}: bad entry: {exc}") from exc
        return cls(**kwargs)
