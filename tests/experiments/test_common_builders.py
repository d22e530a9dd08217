"""Tests for the shared experiment builders and result exports."""

import csv

import pytest

from repro.cli import _maybe_export
from repro.experiments import figure09
from repro.experiments.common import (
    FIVE_HOP,
    PAPER_A_OFF_SWEEP_S,
    PAPER_PACKET_BITS,
    PAPER_SPACING_S,
    SessionSpec,
    add_cross_traffic,
    add_onoff_session,
    build_mix_network,
    mix_specs,
)
from repro.net.topology import build_paper_network
from repro.sched.leave_in_time import LeaveInTime
from repro.traffic.deterministic import DeterministicSource
from repro.traffic.poisson import PoissonSource
from repro.units import T1_RATE_BPS, ms


class TestConstants:
    def test_spacing_matches_rate_and_packet(self):
        # T = L / r exactly: 424 bits at 32 kbit/s.
        assert PAPER_SPACING_S == pytest.approx(
            PAPER_PACKET_BITS / 32_000.0)

    def test_sweep_has_paper_values(self):
        assert len(PAPER_A_OFF_SWEEP_S) == 7
        assert PAPER_A_OFF_SWEEP_S[0] == pytest.approx(ms(6.5))
        assert PAPER_A_OFF_SWEEP_S[-1] == pytest.approx(ms(650))


class TestMixSpecs:
    def test_116_sessions(self):
        assert len(mix_specs()) == 116

    def test_deterministic_order(self):
        assert [s.session_id for s in mix_specs()[:3]] == [
            "a-f/1", "a-f/2", "a-f/3"]

    def test_spec_route_expansion(self):
        spec = SessionSpec("a-h", 2)
        assert spec.session_id == "a-h/2"
        assert spec.route == ["n1", "n2", "n3"]


class TestBuilders:
    def test_mix_network_loads_every_node_fully(self):
        network = build_mix_network(ms(650))
        for index in range(1, 6):
            assert network.reserved_rate(f"n{index}") == pytest.approx(
                T1_RATE_BPS)

    def test_mix_flags_apply(self):
        network = build_mix_network(ms(650), jitter_ids={"a-j/1"})
        assert network.sessions["a-j/1"].jitter_control
        assert not network.sessions["a-j/2"].jitter_control

    def test_onoff_session_declares_token_bucket(self):
        network = build_paper_network(LeaveInTime)
        session = add_onoff_session(network, "t", FIVE_HOP, ms(650))
        assert session.token_bucket == (32_000.0, PAPER_PACKET_BITS)

    def test_cross_traffic_covers_all_one_hop_routes(self):
        network = build_paper_network(LeaveInTime)
        sessions = add_cross_traffic(network)
        routes = {s.route for s in sessions}
        assert routes == {("n1",), ("n2",), ("n3",), ("n4",), ("n5",)}
        for index in range(1, 6):
            assert network.reserved_rate(f"n{index}") == pytest.approx(
                1_472_000.0)

    def test_cross_traffic_names_routes_and_sources(self):
        network = build_paper_network(LeaveInTime)
        network.add_node("x0", LeaveInTime(), capacity=T1_RATE_BPS)
        labels = ["a-f", "b-g", "c-h", "d-i", "e-j"]
        poisson = add_cross_traffic(network, via=("x0",))
        conformant = add_cross_traffic(network, deterministic=True)
        counted = add_cross_traffic(network, rate=64_000.0,
                                    deterministic=True, count=2)
        assert [s.id for s in poisson] == [f"cross-{x}" for x in labels]
        assert [s.route for s in poisson] == [
            ("x0", f"n{i}") for i in range(1, 6)]
        assert [s.id for s in conformant] == [f"det-{x}" for x in labels]
        assert [s.id for s in counted] == [
            f"det-{x}-{k}" for x in labels for k in range(2)]
        sources = {source.session.id: source
                   for source in network.sources}
        assert all(type(sources[s.id]) is PoissonSource for s in poisson)
        assert all(type(sources[s.id]) is DeterministicSource
                   for s in conformant + counted)
        assert sources["det-a-f-0"].interval == pytest.approx(
            PAPER_PACKET_BITS / 64_000.0)


class TestCsvExports:
    def test_distribution_to_csv(self, tmp_path):
        result = figure09.run(duration=1.0, seed=5)
        target = tmp_path / "fig9.csv"
        result.to_csv(target)
        with open(target, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["delay_ms", "measured_ccdf",
                           "analytical_bound", "simulated_bound"]
        assert len(rows) == len(result.delays_ms) + 1

    def test_figure07_to_csv(self, tmp_path):
        from repro.experiments import figure07
        result = figure07.run(duration=1.0, a_off_values=[ms(650)])
        _maybe_export("figure07", result, tmp_path)
        with open(tmp_path / "figure07.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "a_off_ms"
        assert len(rows) == 2

    def test_figure08_to_csv(self, tmp_path):
        from repro.experiments import figure08
        result = figure08.run(duration=3.0, seed=6)
        target = tmp_path / "fig8.csv"
        result.to_csv(target)
        with open(target, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["delay_ms", "mass_no_control",
                           "mass_with_control"]
        mass_nc = sum(float(r[1]) for r in rows[1:])
        mass_c = sum(float(r[2]) for r in rows[1:])
        assert abs(mass_nc - 1.0) < 1e-9
        assert abs(mass_c - 1.0) < 1e-9
