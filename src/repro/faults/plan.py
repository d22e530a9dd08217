"""Declarative fault plans: what breaks, where, and when.

A :class:`FaultPlan` is pure data — a set of typed fault windows,
validated at construction — with **no** reference to live simulation
objects.  Binding a plan to a
:class:`~repro.net.network.Network` is the job of
:class:`~repro.faults.injector.FaultInjector`, which turns every entry
into ordinary kernel events.  Keeping the plan declarative gives two
properties the reproduction needs:

* **Determinism** — a plan fully describes the disruption, so the same
  plan + the same master seed replays the same run, serially or across
  ``--workers`` (each sweep cell builds its own network and its own
  injector from the same plan data).
* **Zero cost when empty** — an empty plan installs nothing; the data
  path stays byte-for-byte on the fault-free fast path (see
  ``tests/sim/test_dispatch_digest.py``).

Fault families (see ``docs/faults.md`` for the exact semantics):

* :class:`LinkDown` — the node's outgoing link is down in
  ``[down_at, up_at)``; transmissions cannot *start* while down (an
  in-flight transmission completes — the last bit was already being
  clocked).  When the link returns the backlog is served normally.
* :class:`PacketLoss` — seeded per-packet Bernoulli loss while
  transmitting onto the node's link during ``[start, stop)``.  Lost
  packets vanish at the transmitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError

__all__ = [
    "LinkDown",
    "PacketLoss",
    "FaultPlan",
]


def _require_instant(owner: str, name: str, value: float) -> float:
    try:
        ok = (isinstance(value, (int, float))
              and not isinstance(value, bool)
              and math.isfinite(value) and value >= 0)
    except OverflowError:  # an int past float range
        ok = False
    if not ok:
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

    def __post_init__(self) -> None:
        _require_name("LinkDown", "node", self.node)
        _require_window("LinkDown", "down_at", self.down_at,
                        "up_at", self.up_at)


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
        rate = self.rate
        if not isinstance(rate, (int, float)) or isinstance(rate, bool) \
                or not 0.0 < rate <= 1.0:  # NaN fails the comparison
            raise ConfigurationError(
                f"PacketLoss: rate must be in (0, 1], got {rate!r}")


#: Plan field -> the spec class its entries must be.
_FAMILIES: Tuple[Tuple[str, type], ...] = (
    ("link_downs", LinkDown),
    ("losses", PacketLoss),
)


@dataclass(frozen=True)
class FaultPlan:
    """A validated, immutable set of fault specifications.

    The injector draws loss coins from the named
    :class:`~repro.sim.rng.RandomStreams` substream ``faults.<node>``,
    so a plan's losses never perturb the traffic sources' streams.
    """

    link_downs: Tuple[LinkDown, ...] = ()
    losses: Tuple[PacketLoss, ...] = ()

    def __post_init__(self) -> None:
        for key, spec_type in _FAMILIES:
            entries = tuple(getattr(self, key))
            object.__setattr__(self, key, entries)
            for entry in entries:
                if not isinstance(entry, spec_type):
                    raise ConfigurationError(
                        f"FaultPlan.{key} expects {spec_type.__name__} "
                        f"entries, got {entry!r}")
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
                            for w in self.losses])):
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
        return not (self.link_downs or self.losses)

    def nodes_referenced(self) -> Tuple[str, ...]:
        """Sorted node names any fault touches."""
        return tuple(sorted({spec.node for spec in
                             self.link_downs + self.losses}))
