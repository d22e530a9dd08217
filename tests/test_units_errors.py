"""Unit tests for the units helpers, errors, and package surface."""

import importlib

import pytest

import repro
import repro.sched
from repro import errors, units


class TestUnits:
    def test_time_conversions(self):
        assert units.ms(13.25) == pytest.approx(0.01325)
        assert units.us(500) == pytest.approx(0.0005)
        assert units.seconds(2) == 2.0
        assert units.to_ms(0.01325) == pytest.approx(13.25)

    def test_data_conversions(self):
        assert units.kbit(424) == 424_000.0
        assert units.Mbit(1.5) == 1_500_000.0
        assert units.kbps(32) == 32_000.0
        assert units.Mbps(100) == 100_000_000.0

    def test_time_eq_tolerates_float_noise(self):
        # One T at 32 kbit/s accumulated two different ways: equal as
        # instants, not necessarily as doubles.
        spacing = units.ATM_PACKET_BITS / units.kbps(32)
        accumulated = sum([spacing] * 7)
        direct = 7 * spacing
        assert units.time_eq(accumulated, direct)
        assert units.time_eq(1.0, 1.0 + 0.5 * units.TIME_EPSILON)
        assert not units.time_eq(1.0, 1.0 + units.ms(1))
        assert not units.time_eq(0.0, 2 * units.TIME_EPSILON)

    def test_time_eq_custom_tolerance(self):
        assert units.time_eq(1.0, 1.001, tol=units.ms(2))
        assert not units.time_eq(1.0, 1.001, tol=units.us(1))

    def test_paper_constants(self):
        assert units.ATM_PACKET_BITS == 424
        assert units.T1_RATE_BPS == 1_536_000.0
        assert units.PAPER_PROPAGATION_S == 1e-3
        # Consistency: one packet at 32 kbit/s takes exactly T.
        assert units.ATM_PACKET_BITS / units.kbps(32) == pytest.approx(
            units.ms(13.25))


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(errors.SimulationError, errors.ReproError)
        assert issubclass(errors.ConfigurationError, errors.ReproError)
        assert issubclass(errors.AdmissionError, errors.ReproError)
        assert issubclass(errors.SchedulerSaturationError,
                          errors.AdmissionError)

    def test_admission_error_context(self):
        error = errors.AdmissionError("nope", rule="1.2", node="n3")
        assert error.rule == "1.2"
        assert error.node == "n3"
        assert "nope" in str(error)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_scheduler_classes_exported(self):
        for name in ("LeaveInTime", "WFQ", "FCFS", "StopAndGo",
                     "HierarchicalRoundRobin", "RCSP", "DelayEDD",
                     "JitterEDD"):
            assert hasattr(repro, name)

    @pytest.mark.parametrize("package", [
        "repro", "repro.net", "repro.sched", "repro.traffic",
        "repro.bounds", "repro.admission", "repro.experiments"])
    def test_namespace_hands_out_the_defining_modules_objects(self,
                                                              package):
        # Each name's module is imported on first read
        # (tests/test_import_budget.py); what it hands out is that
        # module's own object, and ``dir`` lists it before it is read.
        namespace = importlib.import_module(package)
        assert set(namespace.__all__) <= set(dir(namespace))
        for name, module in namespace._EXPORTS.items():
            defining = importlib.import_module(module, package)
            assert getattr(namespace, name) is getattr(defining, name)
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            namespace.nope

    def test_disciplines_outside_the_paper_are_gone(self):
        # SCFQ, WF²Q and DRR left with no paper row; VirtualClock is
        # LeaveInTime's default policy, its eq.-2 oracle test-side.
        for module in ("scfq", "wf2q", "drr", "virtual_clock"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(f"repro.sched.{module}")
        for name in ("SCFQ", "WF2Q", "VirtualClock", "DeficitRoundRobin"):
            assert not hasattr(repro, name)
            assert not hasattr(repro.sched, name)
