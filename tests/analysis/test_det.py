"""The ``det`` pack and the differ (``repro-analyze --perturb``).

The static rule gets a *bad* fixture (exact rule ids and line numbers)
and a *clean* twin (silence).  The dynamic half is exercised both
ways: the canonical fig07 workload must come back deterministic under
every perturbation mode, and the deliberately planted ``seeded_bug``
fixture must be caught by the registration-order perturbation.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.det.perturb import (
    Fig07Scenario,
    RunResult,
    Scenario,
    TiebreakShuffledSimulator,
    diff_runs,
    normalized_trace,
    perturb_scenario,
)
from repro.analysis.front import build_parser, main, run_suite
from repro.analysis.lint.core import read_files, registered_rules
from repro.analysis.verify.model import Program
from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.rng import RandomStreams

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "analysis" / "det"

ALL_RULE_IDS = {"unordered-merge"}


def findings(target: str, rule_id: str):
    """(rule, line) pairs from one rule over one fixture file/package."""
    return [(v.rule, v.line) for v in run_suite(
        [FIXTURES / target], [f"det:{rule_id}"])["det"]]


def load_fixture_module(name: str):
    spec = importlib.util.spec_from_file_location(
        name, FIXTURES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_registry_has_the_det_rule():
    registry = registered_rules()
    assert {key for key in registry if key.startswith("det:")} == {
        f"det:{rule_id}" for rule_id in ALL_RULE_IDS}


# ----------------------------------------------------------------------
# unordered-merge: interprocedural, scoped to the cells()/run_cells
# aggregation modules.
# ----------------------------------------------------------------------
def test_unordered_merge_positive():
    assert findings("merge_bad.py", "unordered-merge") == [
        ("unordered-merge", 13),  # [label for label in index]
        ("unordered-merge", 23),  # for extra in extras:
    ]


def test_unordered_merge_negative():
    assert findings("merge_ok.py", "unordered-merge") == []


def test_unordered_merge_scope_follows_cell_fn_references():
    program = Program(read_files([FIXTURES / "merge_bad.py"]))
    roots = {"merge_bad:cells", "merge_bad:run"}
    closure = program.forward_closure(roots)
    # _cell is only reachable through the Cell(fn=_cell) reference edge.
    assert "merge_bad:_cell" in closure
    assert "merge_bad:_labels" in closure


# ----------------------------------------------------------------------
# Suppressions flow through exactly like the other packs.
# ----------------------------------------------------------------------
def test_suppression_silences_exactly_the_named_rule(tmp_path):
    source = (FIXTURES / "merge_bad.py").read_text().replace(
        "for extra in extras:",
        "for extra in extras:  # repro: disable=unordered-merge -- test")
    path = tmp_path / "merge_bad.py"
    path.write_text(source)
    assert [(v.rule, v.line) for v in run_suite([path], ["det"])["det"]] == [
        ("unordered-merge", 13),
    ]


# ----------------------------------------------------------------------
# TiebreakShuffledSimulator: ties dispatch in a different (seeded)
# order, everything else keeps the base kernel's contract.
# ----------------------------------------------------------------------
def _dispatch_order(sim):
    order = []
    for label in "abcdefgh":
        sim.schedule(0.0, order.append, label, priority=0)
    sim.run(until=1.0)
    return order


def test_tiebreak_simulator_permutes_equal_priority_ties():
    base = _dispatch_order(Simulator())
    assert base == list("abcdefgh")  # insertion order in the base kernel
    shuffled = [_dispatch_order(TiebreakShuffledSimulator(seed))
                for seed in (1, 2, 3)]
    assert all(sorted(order) == sorted(base) for order in shuffled)
    assert any(order != base for order in shuffled)


def test_tiebreak_simulator_is_reproducible_per_seed():
    assert (_dispatch_order(TiebreakShuffledSimulator(7))
            == _dispatch_order(TiebreakShuffledSimulator(7)))


def test_tiebreak_simulator_keeps_scheduling_errors():
    sim = TiebreakShuffledSimulator(1)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run(until=2.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_tiebreak_simulator_respects_time_and_priority():
    sim = TiebreakShuffledSimulator(3)
    order = []
    sim.schedule(2.0, order.append, "late", priority=0)
    sim.schedule(1.0, order.append, "low", priority=5)
    sim.schedule(1.0, order.append, "high", priority=0)
    sim.run(until=3.0)
    assert order == ["high", "low", "late"]


# ----------------------------------------------------------------------
# Trace normalization and the minimizing differ.
# ----------------------------------------------------------------------
def _record(time, category, **detail):
    return SimpleNamespace(time=time, category=category, node="n",
                           session="s", packet=1, detail=detail)


def test_normalized_trace_sorts_within_an_instant_only():
    first = [_record(1.0, "a"), _record(1.0, "b"), _record(2.0, "c")]
    second = [_record(1.0, "b"), _record(1.0, "a"), _record(2.0, "c")]
    swapped = [_record(2.0, "c"), _record(1.0, "a"), _record(1.0, "b")]
    assert normalized_trace(first) == normalized_trace(second)
    assert normalized_trace(first) != normalized_trace(swapped)


def test_diff_runs_minimizes_to_first_event_and_observable():
    base = RunResult(observables=(("x", "1"), ("y", "2")),
                     trace=("a", "b", "c"))
    pert = RunResult(observables=(("x", "1"), ("y", "9")),
                     trace=("a", "B", "c"))
    divergence = diff_runs(base, pert, scenario="s", mode="tiebreak",
                           detail="seed 1")
    assert divergence.first_event == (1, "b", "B")
    assert divergence.observable == ("y", "2", "9")
    assert "first diverging event (#1)" in divergence.render()


def test_diff_runs_reports_missing_tail_as_absent():
    base = RunResult(observables=(), trace=("a", "b", "c"))
    pert = RunResult(observables=(), trace=("a", "b"))
    divergence = diff_runs(base, pert, scenario="s", mode="m", detail="d")
    assert divergence.first_event == (2, "c", "<absent>")


def test_diff_runs_agreement_is_none():
    run = RunResult(observables=(("x", "1"),), trace=("a",))
    assert diff_runs(run, run, scenario="s", mode="m", detail="d") is None


# ----------------------------------------------------------------------
# The differ catches the seeded registration-order bug dynamically.
# ----------------------------------------------------------------------
class _SeededBugScenario(Scenario):
    name = "seeded-bug"

    def __init__(self, module):
        self._module = module

    def run(self, *, sim=None, order_seed=None, horizon=0.25):
        session_ids = ["s1", "s2", "s3", "s4"]
        if order_seed is not None:
            RandomStreams(order_seed).stream(
                "registration-order").shuffle(session_ids)
        counts = self._module.run(session_ids, horizon=horizon)
        return RunResult(
            observables=tuple((sid, repr(n)) for sid, n in counts),
            trace=())


def test_perturb_catches_the_seeded_registration_bug():
    scenario = _SeededBugScenario(load_fixture_module("seeded_bug"))
    report = perturb_scenario(scenario, modes=("registration",),
                              horizon=0.25, rounds=2)
    assert not report.deterministic
    divergence = report.divergences[0]
    assert divergence.mode == "registration"
    assert divergence.observable is not None
    assert "DIVERGED under registration" in report.render()


# ----------------------------------------------------------------------
# The canonical fig07 workload is deterministic under every mode —
# including workers=1 vs workers=4 bit-identity.
# ----------------------------------------------------------------------
def test_fig07_is_deterministic_under_all_perturbations():
    """At the horizon, rounds and pool width ``repro-analyze --perturb``
    runs with no other argument, read off its parser: while this ran
    ``horizon=0.1, rounds=1`` the CLI's own defaults exited 1 unseen."""
    cli = build_parser().parse_args(["--perturb"])
    report = perturb_scenario(Fig07Scenario(), horizon=cli.horizon,
                              workers=cli.workers, rounds=cli.rounds)
    assert report.deterministic
    assert report.modes == ("tiebreak", "registration", "workers",
                            "partitions")
    # baseline + 2 tiebreak + 2 registration + 2 cells x {serial,
    # pooled} + the partitions mode's serial reference + 2 sharded
    # shuffles
    assert (cli.horizon, cli.rounds, report.runs) == (0.25, 2, 12)
    assert report.events > 0


# ----------------------------------------------------------------------
# CLI (``repro-analyze --select det[:RULE]`` and ``--perturb``).
# ----------------------------------------------------------------------
def test_cli_exit_codes_and_json(capsys):
    bad = str(FIXTURES / "merge_bad.py")
    ok = str(FIXTURES / "merge_ok.py")

    assert main([bad, "--select", "det"]) == 1
    assert "unordered-merge" in capsys.readouterr().out

    assert main([ok, "--select", "det"]) == 0
    capsys.readouterr()  # drop the "clean" line before the JSON run

    assert main([bad, "--select", "det", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [row["rule"] for row in payload["findings"]["det"]] == [
        "unordered-merge"] * 2


def test_cli_select_runs_only_the_named_rule(capsys):
    # Selecting one det rule runs (and prints) the det pack alone.
    target = str(FIXTURES / "merge_bad.py")
    assert main([target, "--select", "det:unordered-merge"]) == 1
    out = capsys.readouterr().out
    assert "== det ==" in out and "unordered-merge" in out
    assert "== verify ==" not in out and "== hot ==" not in out


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert f"det:{rule_id}: " in out


def test_cli_select_unknown_rule_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([str(FIXTURES / "merge_ok.py"), "--select",
              "det:no-such-rule"])
    assert excinfo.value.code == 2


def test_cli_perturb_verdict_is_the_exit_code(tmp_path, monkeypatch,
                                             capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["--perturb", "--scenario", "fig07",
                 "--modes", "registration", "--horizon", "0.05",
                 "--rounds", "1"]) == 0
    assert "deterministic under registration" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []  # the verdict is not a file


def test_cli_perturb_rejects_unknown_scenario_and_mode(capsys):
    for argv, complaint in (
            (["--scenario", "nosuch"], "unknown scenario 'nosuch'"),
            (["--modes", "nosuch"], "unknown perturbation mode(s): nosuch"),
            # A horizon that simulates nothing, or no perturbed run at
            # all, used to come back "deterministic"; nan was a traceback.
            (["--horizon", "-1"], "--horizon: must be a finite number of "
                                  "seconds > 0, got '-1'"),
            (["--horizon", "0"], "--horizon: must be a finite number"),
            (["--horizon", "nan"], "--horizon: must be a finite number"),
            (["--horizon", "inf"], "--horizon: must be a finite number"),
            (["--rounds", "0"], "--rounds: must be >= 1, got '0'"),
            (["--workers", "0"], "--workers: must be >= 1, got '0'"),
            (["--workers", "-2"], "--workers: must be >= 1, got '-2'")):
        with pytest.raises(SystemExit) as excinfo:
            main(["--perturb"] + argv)
        assert excinfo.value.code == 2
        assert complaint in capsys.readouterr().err
