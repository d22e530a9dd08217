"""CLI --csv flag and assorted experiment edge cases."""

import csv
import dataclasses
import importlib
import inspect
import multiprocessing.process
import os
import re

import pytest

from repro import cli
from repro.cli import main
from repro.units import ms

#: Experiment -> ``run`` options that keep it small.  Each result holds
#: dataclass ``rows`` and no ``to_csv`` of its own.
ROW_EXPERIMENTS = {
    "fault_sweep": {"outages": (0.0,)},
    "figure07": {"a_off_values": (ms(650),)},
    "figure14_17": {"a_off_values": (ms(650),)},
    "heavy_traffic": {"sessions": 200, "rhos": (0.9,),
                      "topologies": ("single",)},
    "hop_scaling": {"hop_counts": (1, 2)},
    "saturation": {"d_values_ms": (13.25, 3.0)},
}


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

    def test_the_row_experiments_are_every_result_with_rows(self):
        with_rows = set()
        for name in cli._SIMULATED:
            module = importlib.import_module(f"repro.experiments.{name}")
            result_type = getattr(
                module, inspect.signature(module.run).return_annotation)
            if "rows" in {f.name for f in dataclasses.fields(result_type)}:
                with_rows.add(name)
        assert with_rows == set(ROW_EXPERIMENTS)

    @pytest.mark.parametrize("name", sorted(ROW_EXPERIMENTS))
    def test_a_result_with_rows_exports_them(self, name, tmp_path,
                                             monkeypatch, capsys):
        module = importlib.import_module(f"repro.experiments.{name}")
        run, results = module.run, []

        def small(**kwargs):
            results.append(run(**kwargs, **ROW_EXPERIMENTS[name]))
            return results[-1]

        monkeypatch.setattr(module, "run", small)
        assert main([name, "--duration", "1", "--csv", str(tmp_path)]) == 0
        (result,) = results
        assert not hasattr(result, "to_csv")
        with open(tmp_path / f"{name}.csv", newline="") as handle:
            lines = list(csv.reader(handle))
        names = [f.name for f in dataclasses.fields(result.rows[0])]
        assert lines[0] == names
        assert lines[1:] == [[str(getattr(row, field)) for field in names]
                             for row in result.rows]
        assert f"[csv written to {tmp_path / f'{name}.csv'}]" in \
            capsys.readouterr().out


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


class TestHeavyTrafficRun:
    def test_run_returns_each_cells_row_and_starts_no_process(
            self, monkeypatch):
        from repro.experiments import heavy_traffic

        def refuse(*args, **kwargs):
            raise AssertionError("heavy_traffic.run started a process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        options = {"duration": 1.0, "seed": 0, "sessions": 200,
                   "rhos": (0.9,), "topologies": ("single",)}
        wall_clock = ("wall_s", "events_per_sec")

        def observables(row):
            return {name: value
                    for name, value in dataclasses.asdict(row).items()
                    if name not in wall_clock}

        rows = heavy_traffic.run(**options).rows
        cells = heavy_traffic.cells(**options)
        assert len(rows) == len(cells) == 3
        assert [observables(row) for row in rows] == [
            observables(cell.fn(**cell.kwargs)) for cell in cells]

    @pytest.mark.parametrize("options, named", [
        ({"sessions": 0}, "session count 0;"),
        ({"sessions": 2.5}, "session count 2.5;"),
        ({"rhos": (0.9, 0.0)}, "loads [0.0];"),
        ({"rhos": (float("nan"),)}, "loads [nan];"),
        ({"rhos": (float("inf"),)}, "loads [inf];")],
        ids=["no-sessions", "fractional-sessions", "zero-rho", "nan-rho",
             "inf-rho"])
    def test_a_bad_count_or_load_is_refused_before_any_cell_runs(
            self, monkeypatch, options, named):
        from repro.errors import ConfigurationError
        from repro.experiments import heavy_traffic

        def refuse(**kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(heavy_traffic, "_cell", refuse)
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            heavy_traffic.run(**{"duration": 1.0, "sessions": 10, **options})


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
