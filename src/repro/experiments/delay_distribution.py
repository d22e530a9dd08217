"""Shared engine for Figures 9-11: end-to-end delay-distribution bounds.

A five-hop Poisson session traverses the CROSS configuration. Three
curves are produced, exactly as in the paper:

* **measured** — the empirical CCDF of the session's end-to-end delays;
* **analytical upper bound** — the session's reference server is an
  M/D/1 queue, whose sojourn CCDF (Crommelin) shifted right by
  ``β + α`` bounds the end-to-end CCDF (eq. 16);
* **simulated upper bound** — the same shift applied to the delay CCDF
  obtained by replaying the session's *own* arrival trace through a
  fixed-rate reference server (eq. 1) — the estimate available even for
  sessions that are not amenable to analysis.

Soundness means measured ≤ both bounds at every grid point (up to
sampling noise in the far tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.histogram import ccdf_at, tail_percentile
from repro.analysis.report import format_table
from repro.bounds.delay import SessionBounds, compute_session_bounds
from repro.bounds.distribution import shifted_ccdf
from repro.bounds.md1 import md1_delay_ccdf_function
from repro.experiments.common import (
    FIVE_HOP,
    PAPER_PACKET_BITS,
    add_cross_traffic,
)
from repro.net.network import Network
from repro.net.session import Session
from repro.net.topology import build_paper_network
from repro.optdeps import np
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.reference import reference_delays
from repro.traffic.poisson import PoissonSource
from repro.units import to_ms

__all__ = ["DistributionResult", "run_distribution_experiment"]

TARGET_SESSION = "poisson-target"


@dataclass
class DistributionResult:
    """The three CCDF curves on a common delay grid."""

    figure: str
    duration: float
    seed: int
    network: Network
    bounds: SessionBounds
    utilization: float
    delays_ms: np.ndarray
    measured: np.ndarray
    analytical_bound: np.ndarray
    simulated_bound: np.ndarray
    packets: int

    def sound_against(self, bound: np.ndarray, *,
                      slack: float = 0.0) -> bool:
        """measured ≤ bound (+slack) wherever the bound is defined."""
        return bool(np.all(self.measured <= bound + slack))

    def tail_delay_ms(self, tail_probability: float) -> float:
        """Measured delay exceeded with the given probability."""
        sink = self.network.sink(TARGET_SESSION)
        return to_ms(tail_percentile(sink.samples, tail_probability))

    def to_csv(self, path) -> None:
        """Write the three curves in plot-ready CSV form."""
        from repro.analysis.export import write_ccdf_csv
        write_ccdf_csv(path, self.delays_ms, self.measured,
                       analytical=self.analytical_bound,
                       simulated=self.simulated_bound)

    def table(self, *, stride: int = 5) -> str:
        rows = []
        for index in range(0, len(self.delays_ms), stride):
            rows.append((
                float(self.delays_ms[index]),
                f"{self.measured[index]:.2e}",
                f"{self.analytical_bound[index]:.2e}",
                f"{self.simulated_bound[index]:.2e}"))
        return format_table(
            ["delay(ms)", "P(D>d) meas", "analytic bnd", "simulated bnd"],
            rows,
            title=f"{self.figure} — Poisson session CCDF, utilization "
                  f"{self.utilization:.2f} ({self.duration:.0f}s)")


def run_distribution_experiment(
        *, figure: str,
        target_mean_interarrival: float,
        target_rate: float,
        cross_kind: str,
        cross_rate: float = 0.0,
        cross_mean: float = 0.0,
        deterministic_cross_count: int = 0,
        deterministic_cross_rate: float = 0.0,
        duration: float = 60.0,
        seed: int = 0,
        delay_grid_ms: Optional[Sequence[float]] = None
        ) -> DistributionResult:
    """Run one of the Figure-9/10/11 experiments (the result holds the
    live network).

    ``cross_kind`` is ``"poisson"`` (Figs. 9-10: one Poisson session
    per one-hop route) or ``"deterministic"`` (Fig. 11: N fixed-rate
    sessions per one-hop route). Deterministic cross sources fire in
    phase — the adversarial alignment that pushes the measured
    distribution toward the analytical bound, which is the point of
    Figure 11.
    """
    network = build_paper_network(LeaveInTime, seed=seed)
    target = Session(TARGET_SESSION, rate=target_rate, route=FIVE_HOP,
                     l_max=PAPER_PACKET_BITS)
    network.add_session(target, keep_samples=True)
    source = PoissonSource(network, target, length=PAPER_PACKET_BITS,
                           mean=target_mean_interarrival, keep_trace=True)

    if cross_kind == "poisson":
        add_cross_traffic(network, rate=cross_rate, mean=cross_mean)
    elif cross_kind == "deterministic":
        add_cross_traffic(network, rate=deterministic_cross_rate,
                          deterministic=True,
                          count=deterministic_cross_count)
    else:
        raise ValueError(f"unknown cross_kind {cross_kind!r}")

    network.run(duration)

    bounds = compute_session_bounds(network, target)
    sink = network.sink(TARGET_SESSION)
    measured_samples = sink.samples

    if delay_grid_ms is None:
        top = to_ms(bounds.shift) + to_ms(
            8 * PAPER_PACKET_BITS / target_rate)
        delay_grid_ms = np.linspace(0.0, max(top, 20.0), 81)
    grid_ms = np.asarray(delay_grid_ms, dtype=float)
    grid_s = grid_ms * 1e-3

    measured = ccdf_at(measured_samples, grid_s)

    service_time = PAPER_PACKET_BITS / target_rate
    analytic_ref = md1_delay_ccdf_function(
        1.0 / target_mean_interarrival, service_time)
    analytical = shifted_ccdf(analytic_ref, bounds.shift, grid_s)

    ref_samples = reference_delays(source.trace_times,
                                   source.trace_lengths, target_rate)
    simulated = shifted_ccdf(
        lambda d: float(ccdf_at(ref_samples, [d])[0]),
        bounds.shift, grid_s)

    return DistributionResult(
        figure=figure,
        duration=duration,
        seed=seed,
        network=network,
        bounds=bounds,
        utilization=source.utilization(),
        delays_ms=grid_ms,
        measured=measured,
        analytical_bound=analytical,
        simulated_bound=simulated,
        packets=sink.received,
    )
