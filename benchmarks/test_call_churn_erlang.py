"""Call-churn blocking against the Erlang-B formula.

Every churn call asks for 32 kbit/s on the same five T1 hops, so the
admission controller is a loss system with ``TRUNKS`` = 48 servers:
Poisson arrivals, exponential holding, a call that finds all 48 trunks
taken is blocked and lost.  Its steady-state blocking probability is
Erlang's B formula, E_B(60, 48) = 0.2436 at 60 erlangs offered.

The oracle: ``SEEDS`` independent 30 s runs at 60 erlangs with a 0.5 s
mean holding time (about 3 200 attempts each).  A run's estimate is the
blocked share of the calls that arrive after ``WARM_UP`` = 3 s, six
mean holding times: the network starts empty, and counting from t = 0
reads low (0.19-0.23 over a 15 s horizon) because the first calls all
find free trunks.  The occupancy's distance from equilibrium decays
like exp(-t / holding), so after six holdings it is e^-6 ≈ 0.25 % of
its start — far below what the interval resolves.

The tolerance is a replication t-interval: the seeds' estimates are
independent, so their mean ± t(0.975, SEEDS - 1) · s / √SEEDS is a 95 %
confidence interval for the steady-state blocking probability
(``batch_means`` with one run per batch).  Seeds 0-5 read 0.2456,
0.2436, 0.2290, 0.2748, 0.2577 and 0.2426: 0.2489 ± 0.0164, which
must cover E_B(60, 48).

Erlang's formula is insensitive to the holding-time distribution: it
depends on it only through its mean.  The metamorphic twin runs the
same seeds with every call held exactly 0.5 s (the driver's holding
sampler swapped, its arrivals untouched); its interval must cover
E_B(60, 48) too and overlap the exponential runs' interval.  A release
that freed the wrong trunks, or freed them late, would show in one of
the two holding laws and not the other.
"""

import pytest

from repro.analysis.confidence import batch_means
from repro.experiments import call_churn

SEEDS = range(6)
WARM_UP = 3.0
OFFERED = 60.0
MEAN_HOLDING = 0.5


def erlang_b(offered: float, servers: int) -> float:
    """Erlang-B blocking of ``servers`` trunks at ``offered`` erlangs, by
    the stable recursion B(a, k) = a·B(a, k-1) / (k + a·B(a, k-1))."""
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered * blocking / (k + offered * blocking)
    return blocking


def warm_blocking(seed: int) -> float:
    result = call_churn.run(duration=30.0, seed=seed,
                            offered_erlangs=OFFERED,
                            mean_holding=MEAN_HOLDING)
    calls = [call for call in result.calls if call.arrived_at > WARM_UP]
    return sum(call.blocked for call in calls) / len(calls)


def blocking_interval(label: str):
    estimates = [warm_blocking(seed) for seed in SEEDS]
    interval = batch_means(estimates, batches=len(estimates))
    print()
    print(f"{label} holding, warm blocking per seed:",
          " ".join(f"{p:.4f}" for p in estimates))
    print(f"mean {interval.mean:.4f} ± {interval.half_width:.4f} (95 %), "
          f"E_B = {erlang_b(OFFERED, call_churn.TRUNKS):.4f}")
    return interval


@pytest.fixture(scope="module")
def exponential_holding():
    return blocking_interval("exponential")


class FixedHolding:
    """The driver's holding sampler, made deterministic at its mean."""

    def sample(self) -> float:
        return MEAN_HOLDING


def test_erlang_b_recursion():
    assert erlang_b(1.0, 1) == 0.5
    assert round(erlang_b(OFFERED, call_churn.TRUNKS), 4) == 0.2436


def test_call_churn_blocking_matches_erlang_b(exponential_holding):
    assert exponential_holding.contains(erlang_b(OFFERED, call_churn.TRUNKS))


def test_blocking_is_insensitive_to_the_holding_law(exponential_holding,
                                                    monkeypatch):
    start = call_churn._ChurnDriver.start

    def start_with_fixed_holding(driver):
        driver._holding = FixedHolding()
        start(driver)

    monkeypatch.setattr(call_churn._ChurnDriver, "start",
                        start_with_fixed_holding)
    fixed = blocking_interval("deterministic")
    assert fixed.contains(erlang_b(OFFERED, call_churn.TRUNKS))
    assert (fixed.low <= exponential_holding.high
            and exponential_holding.low <= fixed.high)
