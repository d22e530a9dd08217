"""Unit tests for delay policies (the d_{i,s} rules)."""

from math import inf, nan

import pytest

from repro.errors import ConfigurationError
from repro.sched.policy import (
    DelayPolicy,
    constant_policy,
    virtual_clock_policy,
)


class TestVirtualClockPolicy:
    def test_d_equals_l_over_r(self):
        policy = virtual_clock_policy(rate=100.0, l_max=424.0)
        assert policy.d_of(212.0) == pytest.approx(2.12)
        assert policy.d_of(424.0) == pytest.approx(4.24)

    def test_d_max(self):
        policy = virtual_clock_policy(rate=100.0, l_max=424.0)
        assert policy.d_max == pytest.approx(4.24)

    def test_alpha_is_zero(self):
        # d = L/r makes alpha vanish, the PGPS-equality condition.
        policy = virtual_clock_policy(rate=100.0, l_max=424.0,
                                      l_min=100.0)
        assert policy.alpha_term(100.0) == pytest.approx(0.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            virtual_clock_policy(rate=0.0, l_max=424.0)


class TestConstantPolicy:
    def test_constant_value(self):
        policy = constant_policy(0.005, l_max=424.0)
        assert policy.d_of(1.0) == 0.005
        assert policy.d_of(424.0) == 0.005
        assert policy.d_max == 0.005

    def test_alpha_maximized_at_l_min(self):
        # d - L/r decreases in L, so the max is at l_min.
        policy = constant_policy(0.005, l_max=424.0, l_min=100.0)
        assert policy.alpha_term(1000.0) == pytest.approx(
            0.005 - 100.0 / 1000.0 + 0.0, abs=1e-12)

    def test_alpha_for_fixed_packets(self):
        policy = constant_policy(0.005, l_max=424.0)
        assert policy.alpha_term(100_000.0) == pytest.approx(
            0.005 - 424.0 / 100_000.0)


class TestGeneralPolicy:
    def test_affine_evaluation(self):
        policy = DelayPolicy(slope=1e-5, offset=0.001, l_max=424.0,
                             l_min=424.0)
        assert policy.d_of(424.0) == pytest.approx(0.00524)

    def test_alpha_maximized_at_l_max_when_slope_dominates(self):
        # slope > 1/r: d - L/r increases in L.
        policy = DelayPolicy(slope=0.02, offset=0.0, l_max=424.0,
                             l_min=100.0)
        rate = 100.0  # 1/r = 0.01 < slope
        assert policy.alpha_term(rate) == pytest.approx(
            (0.02 - 0.01) * 424.0)

    def test_rejects_negative_parameters(self):
        with pytest.raises(ConfigurationError):
            DelayPolicy(slope=-1.0, offset=0.0, l_max=1.0, l_min=1.0)
        with pytest.raises(ConfigurationError):
            DelayPolicy(slope=0.0, offset=-1.0, l_max=1.0, l_min=1.0)
        with pytest.raises(ConfigurationError):
            DelayPolicy(slope=0.0, offset=0.0, l_max=1.0, l_min=2.0)

    @pytest.mark.parametrize("field", ["slope", "offset"])
    @pytest.mark.parametrize("value", [nan, inf])
    def test_rejects_non_finite_parameters(self, field, value):
        # NaN passes ``x < 0``; a NaN slope would also read as LiT's
        # "policy not resolved yet" mark on every packet.
        kwargs = dict(slope=0.0, offset=0.0, l_max=1.0, l_min=1.0)
        kwargs[field] = value
        with pytest.raises(ConfigurationError, match=field):
            DelayPolicy(**kwargs)

    @pytest.mark.parametrize("l_max", [nan, inf])
    def test_rejects_non_finite_l_max(self, l_max):
        with pytest.raises(ConfigurationError):
            DelayPolicy(slope=0.0, offset=0.0, l_max=l_max, l_min=1.0)

    def test_frozen(self):
        policy = constant_policy(0.005, l_max=424.0)
        with pytest.raises(AttributeError):
            policy.offset = 1.0
