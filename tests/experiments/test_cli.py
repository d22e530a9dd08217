"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError


def test_parser_accepts_known_experiments():
    parser = build_parser()
    args = parser.parse_args(["figure07", "--duration", "5",
                              "--seed", "3"])
    assert args.experiment == "figure07"
    assert args.duration == 5.0
    assert args.seed == 3


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure99"])


@pytest.mark.parametrize("argv, complaint", [
    # argparse reads the value of a flag it does not know as the
    # experiment name, and complains about that first.
    (["--kernel-backend", "batch", "figure07"], "invalid choice: 'batch'"),
    (["--kernel-backend=batch", "figure07"],
     "unrecognized arguments: --kernel-backend=batch"),
])
def test_retired_kernel_backend_flag_is_rejected(capsys, argv, complaint):
    # The kernel has no backends to choose from any more; the old flag
    # must fail loudly, not be accepted and ignored.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert complaint in capsys.readouterr().err


def test_retired_state_backend_flags_are_rejected():
    with pytest.raises(SystemExit) as exit_info:
        main(["--state-backend", "soa", "heavy_traffic"])
    assert exit_info.value.code == 2


def test_retired_bench_dir_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["figure07", "--bench-dir=/tmp/bench"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --bench-dir" in capsys.readouterr().err


@pytest.mark.parametrize("argv, complaint", [
    # -1 used to print a table of zero-packet rows and exit 0; nan
    # used to spin forever (every ``time > until`` test is false).
    (["figure07", "--duration", "-1"], "--duration: must be a finite"),
    (["figure07", "--duration", "0"], "--duration: must be a finite"),
    (["figure07", "--duration", "nan"], "--duration: must be a finite"),
    (["figure07", "--duration", "inf"], "--duration: must be a finite"),
    (["figure07", "--workers", "0"], "--workers: must be >= 1"),
    (["figure07", "--workers", "-2"], "--workers: must be >= 1"),
])
def test_nonsense_duration_and_workers_are_usage_errors(capsys, argv,
                                                        complaint):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert complaint in capsys.readouterr().err


def test_analytic_experiment_runs(capsys):
    assert main(["section4"]) == 0
    out = capsys.readouterr().out
    assert "Stop-and-Go" in out
    assert "PGPS" in out


def test_simulated_experiment_runs_with_duration(capsys):
    assert main(["figure08", "--duration", "2"]) == 0
    out = capsys.readouterr().out
    assert "Figure 8" in out
    assert "onoff-jc" in out


def test_full_flag_selects_paper_duration(monkeypatch, capsys):
    captured = {}

    def fake_run(duration=None, seed=0):
        captured["duration"] = duration

        class Result:
            def table(self):
                return "stub"

        return Result()

    monkeypatch.setattr("repro.experiments.figure07.run", fake_run)
    assert main(["figure07", "--full"]) == 0
    assert captured["duration"] == 300.0


def test_default_duration_uses_runner_default(monkeypatch):
    captured = {}

    def fake_run(duration=None, seed=0, **kw):
        captured["called_with_duration"] = "duration" in kw or duration

        class Result:
            def table(self):
                return "stub"

        return Result()

    monkeypatch.setattr("repro.experiments.firewall.run", fake_run)
    assert main(["firewall"]) == 0


def test_parser_accepts_workers():
    args = build_parser().parse_args(["figure07", "--workers", "4"])
    assert args.workers == 4


def test_workers_forwarded_to_sharding_runners(monkeypatch):
    captured = {}

    def fake_run(duration=None, seed=0, workers=1):
        captured["workers"] = workers

        class Result:
            def table(self):
                return "stub"

        return Result()

    monkeypatch.setattr("repro.experiments.figure07.run", fake_run)
    assert main(["figure07", "--workers", "3"]) == 0
    assert captured["workers"] == 3


def test_retired_space_parallel_experiment_is_rejected(capsys):
    # Sharding one topology measured slower than serial on every cell
    # (docs/parallel_kernel.md): the experiment left the CLI, and with
    # it ``all``'s run of it.
    with pytest.raises(SystemExit) as exit_info:
        main(["space_parallel"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'space_parallel'" in capsys.readouterr().err


def test_workers_not_passed_to_plain_runners(monkeypatch):
    def fake_run(duration=None, seed=0):
        class Result:
            def table(self):
                return "stub"

        return Result()

    monkeypatch.setattr("repro.experiments.firewall.run", fake_run)
    # Would raise TypeError if the CLI forced workers through.
    assert main(["firewall", "--workers", "2"]) == 0


def test_retired_profile_flag_is_rejected(capsys):
    # ``python -m cProfile -s cumulative -m repro ...`` prints the table.
    with pytest.raises(SystemExit) as exit_info:
        main(["firewall", "--profile", "5"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --profile" in capsys.readouterr().err


def test_a_run_writes_nothing_it_was_not_asked_to(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["figure08", "--duration", "0.2", "--workers", "1"]) == 0
    assert "Figure 8" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    # The knobs that used to switch a record on are gone from src/;
    # REPRO_BENCH_DURATION lives in benchmarks/conftest.py only.
    src = Path(__file__).resolve().parents[2] / "src"
    assert [str(path) for path in sorted(src.rglob("*.py"))
            if "REPRO_BENCH" in path.read_text(encoding="utf-8")] == []


def test_a_configuration_error_is_one_line_not_a_traceback(monkeypatch,
                                                         capsys):
    def refuse(duration=None, seed=0):
        raise ConfigurationError("duration too short for one sample")

    monkeypatch.setattr("repro.experiments.firewall.run", refuse)
    assert main(["firewall", "--duration", "0.2"]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line == ("leave-in-time: error: duration too short for one "
                    "sample")
    assert captured.out == ""


@pytest.mark.parametrize("partitions, complaint", [
    ("0", "partition count must be >= 1, got 0"),
    ("-1", "partition count must be >= 1, got -1"),
    ("99", "cannot split 8 nodes into 99 partitions"),
])
def test_bad_partition_count_is_one_line_not_a_traceback(
        monkeypatch, capsys, partitions, complaint):
    # The CLI no longer shards, but the sharder's refusal of a partition
    # count is still a ConfigurationError, and one must still reach the
    # user as one line.
    from repro.experiments.space_parallel import tandem_builder
    from repro.sim.parallel import run_sharded

    def shard(duration=None, seed=0):
        return run_sharded(tandem_builder(seed=seed), duration,
                           partitions=int(partitions))

    monkeypatch.setattr("repro.experiments.firewall.run", shard)
    assert main(["firewall", "--duration", "0.2"]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("leave-in-time: error: ") and complaint in line
    assert captured.out == ""


def test_unusable_csv_directory_fails_before_the_run(tmp_path, monkeypatch,
                                                     capsys):
    def never_run(**kwargs):
        raise AssertionError("the experiment ran before --csv was checked")

    monkeypatch.setattr("repro.experiments.figure07.run", never_run)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert main(["figure07", "--csv", str(blocker / "plots")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("leave-in-time: error: --csv: cannot create")
