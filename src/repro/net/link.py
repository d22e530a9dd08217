"""Outgoing links: capacity and propagation delay.

A :class:`Link` is pure data — the owning :class:`~repro.net.node.ServerNode`
performs the transmission timing (``L/C``) and schedules delivery after
the propagation delay ``Γ``. Keeping the link passive matches the
paper's model, where all queueing happens at the server and the link
only contributes the two constants that appear in the β term of the
delay bound (paper eq. 13)."""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

__all__ = ["Link"]


class Link:
    """An outgoing link with capacity ``C`` (bit/s) and propagation ``Γ`` (s).

    ``Γ`` doubles as the *lookahead* of the space-parallel kernel
    (:mod:`repro.sim.parallel`): a packet finishing transmission at
    ``s`` cannot affect the downstream node before ``s + Γ``, so ``Γ``
    bounds how far two shards may safely simulate past each other.  A
    link with ``propagation=0.0`` (the default) therefore carries zero
    lookahead and **cannot be a partition boundary** — the graph
    partitioner serially merges the two endpoints of a zero-Γ edge into
    one shard (see ``docs/parallel_kernel.md``).
    """

    __slots__ = ("capacity", "propagation")

    def __init__(self, capacity: float, propagation: float = 0.0) -> None:
        # NaN fails every ordering comparison, so the sign checks alone
        # would accept non-finite values and poison every L/C and Γ
        # term downstream; reject them here (fail-loud).
        if not math.isfinite(capacity) or capacity <= 0:
            raise ConfigurationError(
                f"link capacity must be positive and finite, "
                f"got {capacity}")
        if not math.isfinite(propagation) or propagation < 0:
            raise ConfigurationError(
                f"link propagation must be non-negative and finite, "
                f"got {propagation}")
        self.capacity = float(capacity)
        self.propagation = float(propagation)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link C={self.capacity:g}bps Γ={self.propagation:g}s>"
