"""Substrate validation: the simulator against M/D/1 queueing theory.

A single Leave-in-Time node serving one Poisson session alone *is* an
M/D/1 queue, so every measured statistic has an exact analytical
counterpart:

* mean delay → Pollaczek-Khinchine,
* the full delay CCDF → Crommelin's distribution,
* P(no wait) → 1 − ρ.

This experiment runs that queue at several utilizations and reports
measured vs theory with batch-means confidence intervals — the
calibration evidence that the delays every other experiment measures
are produced by a correct queueing substrate, not simulator artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.analysis.confidence import ConfidenceInterval, batch_means
from repro.analysis.histogram import ccdf_at
from repro.analysis.report import format_table
from repro.bounds.md1 import md1_delay_ccdf, md1_mean_wait
from repro.net.network import Network
from repro.net.session import Session
from repro.optdeps import np
from repro.sched.leave_in_time import LeaveInTime
from repro.traffic.poisson import PoissonSource
from repro.units import to_ms

__all__ = ["Md1Point", "Md1ValidationResult", "run"]

PACKET = 424.0
RATE = 400_000.0  # the session's (and link's) service rate


@dataclass(frozen=True)
class Md1Point:
    utilization: float
    packets: int
    measured_mean_ms: float
    theory_mean_ms: float
    interval: ConfidenceInterval
    #: Max |measured − theory| over the CCDF grid.
    ccdf_max_error: float

    @property
    def mean_consistent(self) -> bool:
        return self.interval.contains(self.theory_mean_ms * 1e-3)


@dataclass
class Md1ValidationResult:
    duration: float
    seed: int
    points: List[Md1Point] = field(default_factory=list)

    def all_consistent(self) -> bool:
        return all(p.mean_consistent for p in self.points)

    def table(self) -> str:
        rows = []
        for p in self.points:
            rows.append((
                p.utilization, p.packets, p.measured_mean_ms,
                p.theory_mean_ms,
                f"±{p.interval.half_width * 1e3:.3f}",
                "yes" if p.mean_consistent else "NO",
                f"{p.ccdf_max_error:.4f}"))
        return format_table(
            ["rho", "pkts", "measured(ms)", "P-K theory(ms)",
             "95% hw(ms)", "consistent", "ccdf max err"],
            rows,
            title=f"M/D/1 validation — simulator vs queueing theory "
                  f"({self.duration:.0f}s, seed {self.seed})")


def _run_point(rho: float, *, duration: float, seed: int) -> Md1Point:
    mean_interarrival = PACKET / (rho * RATE)
    network = Network(seed=seed)
    network.add_node("n1", LeaveInTime(), capacity=RATE)
    session = Session("m", rate=RATE, route=["n1"], l_max=PACKET)
    network.add_session(session)
    PoissonSource(network, session, length=PACKET,
                  mean=mean_interarrival)
    network.run(duration)

    sink = network.sink("m")
    samples = sink.samples
    # Drop a 10 % warmup prefix before batching.
    steady = samples[len(samples) // 10:]
    interval = batch_means(steady, batches=20)

    service = PACKET / RATE
    lam = 1.0 / mean_interarrival
    theory_mean = md1_mean_wait(lam, service) + service

    # Evaluate strictly between the distribution's atoms: the delay
    # has a probability mass exactly at one service time (zero-wait
    # packets), which float noise splits across a grid point placed
    # right on it.
    grid = service * np.linspace(1.2, 13.0, 25)
    measured_ccdf = ccdf_at(steady, grid)
    theory_ccdf = np.array([md1_delay_ccdf(t, lam, service)
                            for t in grid])
    max_error = float(np.max(np.abs(measured_ccdf - theory_ccdf)))

    return Md1Point(
        utilization=rho,
        packets=sink.received,
        measured_mean_ms=to_ms(interval.mean),
        theory_mean_ms=to_ms(theory_mean),
        interval=interval,
        ccdf_max_error=max_error,
    )


def run(*, duration: float = 120.0, seed: int = 0,
        utilizations: Sequence[float] = (0.3, 0.5, 0.7, 0.9)
        ) -> Md1ValidationResult:
    result = Md1ValidationResult(duration=duration, seed=seed)
    for rho in utilizations:
        result.points.append(_run_point(rho, duration=duration,
                                        seed=seed))
    return result
