"""CLI --csv flag and assorted experiment edge cases."""

import csv

import pytest

from repro.cli import main


class TestCliCsv:
    def test_csv_flag_writes_file(self, tmp_path, capsys):
        assert main(["figure09", "--duration", "1",
                     "--csv", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        target = tmp_path / "figure09.csv"
        assert target.exists()
        assert "csv written" in out
        with open(target, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "delay_ms"

    def test_csv_flag_creates_directory(self, tmp_path, capsys):
        nested = tmp_path / "a" / "b"
        assert main(["figure07", "--duration", "1",
                     "--csv", str(nested)]) == 0
        assert (nested / "figure07.csv").exists()

    def test_csv_flag_skips_experiments_without_export(self, tmp_path,
                                                       capsys):
        # firewall has no to_csv; the flag must not break it.
        assert main(["firewall", "--duration", "1",
                     "--csv", str(tmp_path)]) == 0
        assert not (tmp_path / "firewall.csv").exists()

    def test_a_session_with_no_samples_exports_zero_mass(self, tmp_path,
                                                         capsys):
        # In 1 s the jitter-controlled session delivers nothing: the
        # table still prints and its CSV column is all zero.
        assert main(["figure08", "--duration", "1", "--workers", "1",
                     "--csv", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "csv written" in out
        with open(tmp_path / "figure08.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows and all(float(row["mass_with_control"]) == 0.0
                            for row in rows)
        assert sum(float(row["mass_no_control"]) for row in rows) \
            == pytest.approx(1.0)

    def test_buffer_figures_run_at_a_short_horizon(self, capsys):
        assert main(["figure12_13", "--duration", "1",
                     "--workers", "1"]) == 0
        assert "onoff-jc    n1        0" in capsys.readouterr().out

    def test_analytic_experiment_ignores_csv(self, tmp_path, capsys):
        assert main(["section4", "--csv", str(tmp_path)]) == 0
        assert list(tmp_path.iterdir()) == []


class TestDistributionResultEdges:
    def test_sound_against_detects_violations(self):
        import numpy as np

        from repro.experiments import figure09
        result = figure09.run(duration=1.0, seed=9)
        # A fabricated bound below the measured curve must fail.
        too_low = np.zeros_like(result.measured)
        assert not result.sound_against(too_low)
        assert result.sound_against(np.ones_like(result.measured))

    def test_tail_delay_monotone_in_probability(self):
        from repro.experiments import figure09
        result = figure09.run(duration=2.0, seed=9)
        assert result.tail_delay_ms(0.01) >= result.tail_delay_ms(0.1)


class TestBenchDurationEnv:
    @pytest.fixture
    def bench_conftest(self):
        import importlib.util
        import pathlib
        spec = importlib.util.spec_from_file_location(
            "bench_conftest",
            pathlib.Path("benchmarks/conftest.py").resolve())
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_env_override(self, bench_conftest, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_DURATION", raising=False)
        assert bench_conftest.bench_duration(12.0) == 12.0
        monkeypatch.setenv("REPRO_BENCH_DURATION", "77")
        assert bench_conftest.bench_duration(12.0) == 77.0

    @pytest.mark.parametrize("garbage", ["soon", "nan", "inf", "0", "-3"])
    def test_garbage_is_a_usage_error_naming_the_variable(
            self, bench_conftest, monkeypatch, garbage):
        monkeypatch.setenv("REPRO_BENCH_DURATION", garbage)
        with pytest.raises(pytest.UsageError,
                           match="REPRO_BENCH_DURATION must be"):
            bench_conftest.bench_duration(12.0)
