"""Named, reproducible random substreams.

Every stochastic component (each traffic source, each burst process)
draws from its own stream derived from a single master seed and the
component's name. This gives the two properties simulation studies
need:

* **Reproducibility** — the same master seed replays the same run.
* **Independence under reconfiguration** — adding a session does not
  shift the random numbers other sessions see (common-random-numbers
  variance reduction across experiment variants, which the paper's
  with/without-jitter-control comparisons rely on implicitly).

A stream's seed depends only on the master seed and the name, so the
table can forget a stream nobody draws from any more
(:meth:`RandomStreams.release`) without moving anyone else's numbers.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Dict

from repro.errors import SimulationError

__all__ = ["RandomStreams", "ExponentialSampler", "GeometricSampler"]


class RandomStreams:
    """Factory of independent :class:`random.Random` streams by name.

    The table holds every stream handed out and not yet released: a
    traffic source releases the one it named itself when it stops
    (:meth:`repro.traffic.base.TrafficSource.stop`), so under call
    churn it holds the live calls' streams and the fixed ones, not one
    per call ever made.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The stream seed mixes the master seed with a CRC of the name, so
        distinct names give (for practical purposes) independent
        Mersenne Twister states regardless of creation order.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        mixed = (self.master_seed * 0x9E3779B1
                 + zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFFFFFFFFFF
        stream = random.Random(mixed)
        self._streams[name] = stream
        return stream

    def __contains__(self, name: str) -> bool:
        """Whether the table holds a stream for ``name`` now."""
        return name in self._streams

    def release(self, name: str) -> None:
        """Forget the stream ``name``; whoever still holds it keeps it.

        Requesting ``name`` again afterwards builds a new stream that
        restarts from the name's seed: it does not continue the
        released one.  Raises :class:`~repro.errors.SimulationError`
        when the table holds no stream for ``name``.
        """
        if self._streams.pop(name, None) is None:
            raise SimulationError(
                f"no random stream named {name!r} to release")

    def spawn(self, name: str) -> "RandomStreams":
        """A child factory whose streams are disjoint from this one's."""
        mixed = (self.master_seed * 0x85EBCA77
                 + zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFFFFFFFFFF
        return RandomStreams(mixed)


class ExponentialSampler:
    """Exponential interarrival sampler with mean ``mean`` seconds.

    A tiny wrapper kept separate so tests can verify the mean and so
    traffic-source code reads declaratively.
    """

    def __init__(self, rng: random.Random, mean: float) -> None:
        if mean <= 0:
            raise ValueError(f"exponential mean must be positive, got {mean}")
        self._rng = rng
        self.mean = float(mean)

    def sample(self) -> float:
        draw = self._rng.random
        # Guard against u == 0 which would give inf.
        u = draw()
        while u <= 0.0:
            u = draw()
        return -self.mean * math.log(u)


class GeometricSampler:
    """Geometric sampler on {1, 2, ...} with the given mean.

    The paper approximates the number of packets generated during an ON
    period by a geometric distribution with mean ``a_ON / T``; the
    support starts at 1 because an ON period emits at least one packet.
    """

    def __init__(self, rng: random.Random, mean: float) -> None:
        if mean < 1.0:
            raise ValueError(
                f"geometric mean must be >= 1 (at least one packet per "
                f"burst), got {mean}")
        self._rng = rng
        self.mean = float(mean)
        #: Success probability of the shifted geometric: mean = 1/p.
        self.p = 1.0 / self.mean

    def sample(self) -> int:
        if self.p >= 1.0:
            return 1
        draw = self._rng.random
        u = draw()
        while u <= 0.0:
            u = draw()
        # Inverse-CDF for P(X = k) = (1-p)^(k-1) p on k = 1, 2, ...
        return 1 + int(math.log(u) / math.log(1.0 - self.p))
