"""Figure 9: delay distribution of a Poisson session at utilization 0.7.

Five-hop Poisson target: a_P = 1.5143 ms, reserved 400 kbit/s
(ρ = 0.7); Poisson cross traffic a_P = 0.3929 ms at 1136 kbit/s fills
each link to exactly T1 capacity. The paper reads off, e.g., that the
analytical bound puts the 10⁻⁴ tail near 26 ms while the measured
distribution reaches it near 23 ms.
"""

from __future__ import annotations

from repro.experiments.delay_distribution import (
    DistributionResult,
    run_distribution_experiment,
)
from repro.units import kbps

__all__ = ["run"]

TARGET_MEAN_S = 1.5143e-3
TARGET_RATE_BPS = kbps(400)
CROSS_MEAN_S = 0.3929e-3
CROSS_RATE_BPS = kbps(1136)


def run(*, duration: float = 60.0, seed: int = 0) -> DistributionResult:
    return run_distribution_experiment(
        figure="Figure 9",
        target_mean_interarrival=TARGET_MEAN_S,
        target_rate=TARGET_RATE_BPS,
        cross_kind="poisson",
        cross_rate=CROSS_RATE_BPS,
        cross_mean=CROSS_MEAN_S,
        duration=duration,
        seed=seed,
    )
