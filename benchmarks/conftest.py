"""Shared benchmark configuration.

Each benchmark runs its experiment exactly once (``pedantic`` with one
round): the interesting output is the figure's data table (printed, use
``pytest -s`` to see it live) and the wall time of one full experiment,
not statistical timing of a hot loop.

Durations are laptop-friendly defaults; set ``REPRO_BENCH_DURATION``
(seconds of simulated time) to lengthen runs toward the paper's 5-10
minute horizons.

Nothing here records a number: performance is recorded and compared by
the ledger only (``benchmarks/ledger/``, ``make ab``).
"""

import math
import os

import pytest


def bench_duration(default: float) -> float:
    """Simulated seconds for a benchmark run (env-overridable)."""
    override = os.environ.get("REPRO_BENCH_DURATION")
    if not override:
        return default
    try:
        value = float(override)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise pytest.UsageError(
            f"REPRO_BENCH_DURATION must be a finite number of simulated "
            f"seconds > 0, got {override!r}")
    return value


def pytest_configure(config):
    # Reject a bad REPRO_BENCH_DURATION before the first benchmark runs.
    bench_duration(1.0)


@pytest.fixture
def run_once(benchmark):
    """Run a zero-argument experiment exactly once under timing."""

    def runner(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return runner
