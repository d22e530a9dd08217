"""Figure 10: delay distribution of a low-rate Poisson session.

Five-hop Poisson target: a_P = 40 ms, reserved 32 kbit/s (ρ ≈ 0.33);
Poisson cross traffic at 1472 kbit/s, a_P = 0.28804 ms. The paper's
point: for a low reserved rate the analytical bound is *loose* (β
grows as d_max = L/r inflates), yet still valid.
"""

from __future__ import annotations

from repro.experiments.common import (
    PAPER_CROSS_POISSON_MEAN_S,
    PAPER_CROSS_POISSON_RATE_BPS,
)
from repro.experiments.delay_distribution import (
    DistributionResult,
    run_distribution_experiment,
)
from repro.optdeps import np
from repro.units import kbps

__all__ = ["run"]

TARGET_MEAN_S = 40e-3
TARGET_RATE_BPS = kbps(32)


def run(*, duration: float = 60.0, seed: int = 0) -> DistributionResult:
    return run_distribution_experiment(
        figure="Figure 10",
        target_mean_interarrival=TARGET_MEAN_S,
        target_rate=TARGET_RATE_BPS,
        cross_kind="poisson",
        cross_rate=PAPER_CROSS_POISSON_RATE_BPS,
        cross_mean=PAPER_CROSS_POISSON_MEAN_S,
        duration=duration,
        seed=seed,
        delay_grid_ms=np.linspace(0.0, 160.0, 81),
    )
