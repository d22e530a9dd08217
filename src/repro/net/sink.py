"""Traffic sinks: consume packets and record end-to-end measurements.

A sink is attached per session at the exit point of its route. It
records the paper's three end-to-end observables:

* per-packet **delay** (last-bit arrival at the sink minus last-bit
  arrival at the first server node),
* the running **maximum delay** and **delay jitter** (max − min delay,
  the paper's jitter definition from [22]),
* the **delay distribution** as raw samples for CCDF estimation.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.monitor import Tally
from repro.net.packet import Packet

__all__ = ["Sink"]


class Sink:
    """Per-session packet sink with delay statistics."""

    __slots__ = ("session_id", "delay", "samples", "received",
                 "bits_received")

    def __init__(self, session_id: str, *,
                 keep_samples: bool = True) -> None:
        self.session_id = session_id
        self.delay = Tally(f"{session_id}.delay")
        #: Every delay, in delivery order, when kept.
        self.samples: Optional[List[float]] = [] if keep_samples else None
        self.received = 0
        self.bits_received = 0.0

    def receive(self, packet: Packet, now: float) -> None:
        """Consume ``packet`` whose last bit arrived at time ``now``."""
        self.received += 1
        self.bits_received += packet.length
        delay = now - packet.entry_time
        self.delay.observe(delay)
        if self.samples is not None:
            self.samples.append(delay)

    @property
    def max_delay(self) -> float:
        """Largest observed end-to-end delay (0.0 before any packet)."""
        return self.delay.maximum if self.delay.count else 0.0

    @property
    def min_delay(self) -> float:
        return self.delay.minimum if self.delay.count else 0.0

    @property
    def jitter(self) -> float:
        """Observed delay jitter: max delay − min delay (paper's J)."""
        return self.delay.spread

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Sink {self.session_id} n={self.received} "
                f"max={self.max_delay:.6f}s>")
