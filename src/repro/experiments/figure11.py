"""Figure 11: the same low-rate Poisson session, Deterministic cross.

Identical target to Figure 10 (32 kbit/s, a_P = 40 ms), but each
one-hop route carries 47 Deterministic 32 kbit/s sessions instead of
one large Poisson session. The measured distribution sits much closer
to the analytical bound — showing the bound's looseness in Figure 10
reflects the benign cross traffic there, not slack in the analysis.
"""

from __future__ import annotations

from repro.experiments.delay_distribution import (
    DistributionResult,
    run_distribution_experiment,
)
from repro.optdeps import np
from repro.units import kbps

__all__ = ["run"]

TARGET_MEAN_S = 40e-3
TARGET_RATE_BPS = kbps(32)
CROSS_COUNT = 47
CROSS_RATE_BPS = kbps(32)


def run(*, duration: float = 60.0, seed: int = 0) -> DistributionResult:
    return run_distribution_experiment(
        figure="Figure 11",
        target_mean_interarrival=TARGET_MEAN_S,
        target_rate=TARGET_RATE_BPS,
        cross_kind="deterministic",
        deterministic_cross_count=CROSS_COUNT,
        deterministic_cross_rate=CROSS_RATE_BPS,
        duration=duration,
        seed=seed,
        delay_grid_ms=np.linspace(0.0, 160.0, 81),
    )
