"""Options and defaults of the distribution-experiment engine."""

import numpy as np
import pytest

from repro.experiments.delay_distribution import (
    run_distribution_experiment,
)
from repro.units import kbps


def run(**overrides):
    spec = dict(
        figure="test",
        target_mean_interarrival=1.5143e-3,
        target_rate=kbps(400),
        cross_kind="poisson",
        cross_rate=kbps(1136),
        cross_mean=0.3929e-3,
        duration=2.0,
        seed=11,
    )
    spec.update(overrides)
    return run_distribution_experiment(**spec)


def test_default_grid_reaches_past_the_shift():
    result = run()
    assert result.delays_ms[0] == 0.0
    assert result.delays_ms[-1] * 1e-3 > result.bounds.shift


def test_explicit_grid_respected():
    grid = [0.0, 5.0, 10.0]
    result = run(delay_grid_ms=grid)
    assert list(result.delays_ms) == grid
    assert len(result.measured) == 3


def test_unknown_cross_kind_rejected():
    with pytest.raises(ValueError):
        run(cross_kind="fractal")


def test_curves_are_valid_ccdfs():
    result = run()
    for curve in (result.measured, result.analytical_bound,
                  result.simulated_bound):
        assert np.all(curve >= -1e-12)
        assert np.all(curve <= 1.0 + 1e-12)
        assert np.all(np.diff(curve) <= 1e-9)  # non-increasing
