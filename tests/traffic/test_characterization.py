"""Unit tests for the EDD-family (x_min, x_ave, I, P) envelope."""

import pytest

from repro.errors import ConfigurationError
from repro.traffic.characterization import (
    EddCharacterization,
    average_rate_reservation,
    conforms_to_edd,
    peak_rate_reservation,
)

VOICE = EddCharacterization(x_min=0.010, x_ave=0.020, interval=0.200,
                            p_max=424.0)


class TestDeclaration:
    def test_derived_rates(self):
        assert VOICE.peak_rate == pytest.approx(42_400.0)
        assert VOICE.average_rate == pytest.approx(21_200.0)
        assert VOICE.packets_per_window == 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EddCharacterization(0.0, 0.02, 0.2, 424.0)
        with pytest.raises(ConfigurationError):
            EddCharacterization(0.03, 0.02, 0.2, 424.0)
        with pytest.raises(ConfigurationError):
            EddCharacterization(0.01, 0.02, 0.01, 424.0)
        with pytest.raises(ConfigurationError):
            EddCharacterization(0.01, 0.02, 0.2, 0.0)


class TestConformance:
    def test_average_spacing_trace_conforms(self):
        times = [0.02 * i for i in range(50)]
        assert conforms_to_edd(times, [424.0] * 50, VOICE)

    def test_spacing_violation(self):
        times = [0.0, 0.005]
        assert not conforms_to_edd(times, [424.0] * 2, VOICE)

    def test_oversized_packet_violates(self):
        assert not conforms_to_edd([0.0], [500.0], VOICE)

    def test_burst_within_peak_but_over_average_violates(self):
        # 11 packets spaced exactly x_min inside one interval: peak OK
        # but the window budget is 10.
        times = [0.010 * i for i in range(11)]
        assert not conforms_to_edd(times, [424.0] * 11, VOICE)

    def test_burst_then_silence_conforms(self):
        # 10 packets at peak then a long pause: within the budget.
        times = [0.010 * i for i in range(10)] + [0.5]
        assert conforms_to_edd(times, [424.0] * 11, VOICE)

    def test_empty_trace_conforms(self):
        assert conforms_to_edd([], [], VOICE)


class TestReservations:
    def test_peak_rate_reservation(self):
        # 42.4 kbit/s each; three fit in 130 kbit/s, four do not.
        assert peak_rate_reservation([VOICE] * 3, 130_000.0)
        assert not peak_rate_reservation([VOICE] * 4, 130_000.0)

    def test_average_rate_admits_more_than_peak(self):
        # Bursty sessions (x_ave = 4x x_min): the [27]-style test
        # admits a set that peak-rate reservation rejects.
        bursty = EddCharacterization(x_min=0.005, x_ave=0.020,
                                     interval=0.200, p_max=424.0)
        count, capacity = 4, 130_000.0
        assert not peak_rate_reservation([bursty] * count, capacity)
        assert average_rate_reservation([bursty] * count, capacity,
                                        horizon=2.0)

    def test_average_rate_still_rejects_overload(self):
        heavy = EddCharacterization(x_min=0.005, x_ave=0.006,
                                    interval=0.060, p_max=424.0)
        assert not average_rate_reservation([heavy] * 3, 130_000.0,
                                            horizon=2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            peak_rate_reservation([VOICE], 0.0)
        with pytest.raises(ConfigurationError):
            average_rate_reservation([VOICE], 1e6, horizon=0.0)


class TestAgainstSimulatedSources:
    def test_onoff_source_conforms_to_its_characterization(self):
        # The paper's ON-OFF source with T = x_min; x_ave chosen from
        # its long-run rate.
        from repro.sched.fcfs import FCFS
        from repro.net.session import Session
        from repro.traffic.onoff import OnOffSource
        from tests.conftest import make_network
        from repro.units import ms

        network = make_network(FCFS, capacity=1e6, seed=8)
        session = Session("s", rate=32_000.0, route=["n1"], l_max=424.0)
        network.add_session(session, keep_samples=False)
        source = OnOffSource(network, session, length=424.0,
                             spacing=ms(13.25), mean_on=ms(352),
                             mean_off=ms(650), keep_trace=True)
        network.run(120.0)
        spec = EddCharacterization(x_min=ms(13.25), x_ave=ms(13.25),
                                   interval=ms(132.5), p_max=424.0)
        assert conforms_to_edd(source.trace_times,
                               source.trace_lengths, spec)
