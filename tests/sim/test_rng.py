"""Unit and statistical tests for the random-stream factory."""

import math
import statistics

import pytest

from repro.errors import SimulationError
from repro.sim.rng import ExponentialSampler, GeometricSampler, RandomStreams


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(7)
        assert streams.stream("a") is streams.stream("a")

    def test_different_names_differ(self):
        streams = RandomStreams(7)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_factories(self):
        first = [RandomStreams(3).stream("x").random() for _ in range(3)]
        second = [RandomStreams(3).stream("x").random() for _ in range(3)]
        assert first == second

    def test_creation_order_does_not_shift_streams(self):
        lone = RandomStreams(3)
        seq_lone = [lone.stream("x").random() for _ in range(5)]
        crowded = RandomStreams(3)
        crowded.stream("a")
        crowded.stream("b")
        seq_crowded = [crowded.stream("x").random() for _ in range(5)]
        assert seq_lone == seq_crowded

    def test_master_seed_changes_streams(self):
        a = RandomStreams(1).stream("x").random()
        b = RandomStreams(2).stream("x").random()
        assert a != b

    def test_release_forgets_and_a_new_request_restarts_from_the_seed(self):
        streams = RandomStreams(5)
        held = streams.stream("x")
        first = [held.random() for _ in range(3)]
        streams.release("x")
        assert "x" not in streams
        held.random()  # the holder keeps drawing from the old state
        again = streams.stream("x")
        assert again is not held
        assert [again.random() for _ in range(3)] == first

    def test_release_leaves_other_streams_alone(self):
        streams = RandomStreams(5)
        other = streams.stream("y")
        streams.stream("x")
        streams.release("x")
        assert streams.stream("y") is other

    def test_releasing_a_name_not_held_names_it(self):
        streams = RandomStreams(5)
        with pytest.raises(SimulationError, match="'x'"):
            streams.release("x")
        streams.stream("x")
        streams.release("x")
        with pytest.raises(SimulationError, match="'x'"):
            streams.release("x")

    def test_spawn_is_disjoint(self):
        parent = RandomStreams(1)
        child = parent.spawn("child")
        assert (parent.stream("x").random()
                != child.stream("x").random())


class TestExponentialSampler:
    def test_mean_is_close(self):
        sampler = ExponentialSampler(RandomStreams(0).stream("e"), 2.0)
        values = [sampler.sample() for _ in range(20000)]
        assert statistics.fmean(values) == pytest.approx(2.0, rel=0.05)

    def test_samples_positive(self):
        sampler = ExponentialSampler(RandomStreams(0).stream("e"), 0.5)
        assert all(sampler.sample() > 0 for _ in range(1000))

    def test_rejects_non_positive_mean(self):
        with pytest.raises(ValueError):
            ExponentialSampler(RandomStreams(0).stream("e"), 0.0)

    def test_memoryless_shape(self):
        # P(X > 2m) should be about e^-2.
        sampler = ExponentialSampler(RandomStreams(1).stream("e"), 1.0)
        values = [sampler.sample() for _ in range(20000)]
        tail = sum(1 for v in values if v > 2.0) / len(values)
        assert tail == pytest.approx(math.exp(-2.0), rel=0.15)


class TestGeometricSampler:
    def test_mean_is_close(self):
        sampler = GeometricSampler(RandomStreams(0).stream("g"), 26.6)
        values = [sampler.sample() for _ in range(20000)]
        assert statistics.fmean(values) == pytest.approx(26.6, rel=0.05)

    def test_support_starts_at_one(self):
        sampler = GeometricSampler(RandomStreams(0).stream("g"), 1.5)
        assert min(sampler.sample() for _ in range(2000)) == 1

    def test_mean_one_is_constant(self):
        sampler = GeometricSampler(RandomStreams(0).stream("g"), 1.0)
        assert all(sampler.sample() == 1 for _ in range(100))

    def test_rejects_mean_below_one(self):
        with pytest.raises(ValueError):
            GeometricSampler(RandomStreams(0).stream("g"), 0.5)
