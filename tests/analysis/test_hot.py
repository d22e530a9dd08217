"""The ``hot`` pack and the profiler (``repro-analyze --profile``).

Each rule gets a *bad* fixture (exact rule ids and line numbers) and a
*clean* twin (silence).  Reachability is the scoping contract under
test: identical patterns in code that never reaches a
``schedule``/``push`` sink must stay silent.  The dynamic half is
exercised against a real cProfile run: a finding in the function the
profile actually entered must outrank the identical finding in code
the profile never touched, and ``--budget`` gates on that measured
share.
"""

from __future__ import annotations

import cProfile
import importlib.util
import json
import pstats
import sys
from pathlib import Path

import pytest

from repro.analysis.front import main, run_suite
from repro.analysis.hot import build_hot_program
from repro.analysis.hot.profile import (
    HotnessIndex,
    ProfileScenario,
    profile_scenario,
    rank_findings,
    scenarios,
)

from repro.analysis.lint.cache import AnalysisCache
from repro.analysis.lint.core import registered_rules
from repro.analysis.verify import build_program

FIXTURES = (Path(__file__).resolve().parent.parent / "fixtures"
            / "analysis" / "hot")

ALL_RULE_IDS = {
    "allocation-in-hot-path",
    "unslotted-hot-class",
    "attribute-chain-in-hot-loop",
    "item-call-in-hot-loop",
    "exception-control-flow-in-hot-path",
}


def findings(target: str, rule_id: str = None):
    """(rule, line) pairs from the analyzer over one fixture file."""
    select = "hot" if rule_id is None else f"hot:{rule_id}"
    return [(v.rule, v.line)
            for v in run_suite([FIXTURES / target], [select])["hot"]]


def hot_program(target: Path):
    cache = AnalysisCache(None)
    return build_hot_program([target], build_program([target], cache),
                             cache)


def load_fixture_module(name: str):
    spec = importlib.util.spec_from_file_location(
        name, FIXTURES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_registry_has_the_five_hot_rules():
    registry = registered_rules()
    assert {key for key in registry if key.startswith("hot:")} == {
        f"hot:{rule_id}" for rule_id in ALL_RULE_IDS}


# ----------------------------------------------------------------------
# Rules, positive and negative
# ----------------------------------------------------------------------
def test_allocation_in_hot_path_positive():
    assert findings("alloc_bad.py", "allocation-in-hot-path") == [
        ("allocation-in-hot-path", 6),   # loop-invariant tuple
        ("allocation-in-hot-path", 10),  # same list built at 2 sites
    ]


def test_allocation_in_hot_path_negative():
    # Hoisted, loop-dependent, and constant-folded allocations pass.
    assert findings("alloc_ok.py") == []


def test_unslotted_hot_class_positive_reports_class_line():
    assert findings("unslotted_bad.py", "unslotted-hot-class") == [
        ("unslotted-hot-class", 4),
    ]


def test_unslotted_hot_class_negative():
    # __slots__, @dataclass(slots=True), and exception types all pass.
    assert findings("unslotted_ok.py") == []


def test_attribute_chain_positive():
    assert findings("chain_bad.py", "attribute-chain-in-hot-loop") == [
        ("attribute-chain-in-hot-loop", 5),   # while-loop re-read
        ("attribute-chain-in-hot-loop", 11),  # per-event double load
    ]


def test_attribute_chain_negative_prefix_bound():
    assert findings("chain_ok.py") == []


def test_item_call_positive():
    assert findings("probe_bad.py", "item-call-in-hot-loop") == [
        ("item-call-in-hot-loop", 6),   # loop-invariant probe
        ("item-call-in-hot-loop", 10),  # same probe evaluated twice
    ]


def test_item_call_negative_hoisted_or_keyed():
    assert findings("probe_ok.py") == []


def test_exception_control_flow_positive():
    rows = findings("except_bad.py",
                    "exception-control-flow-in-hot-path")
    assert rows == [("exception-control-flow-in-hot-path", 5)]


def test_exception_control_flow_negative():
    # .get with default, a re-raising handler, and an unexpected
    # exception type are all legitimate.
    assert findings("except_ok.py") == []


def test_unreachable_code_is_out_of_scope():
    # cold_code.py repeats every bad pattern but never schedules or
    # pushes; nothing is kernel-reachable, so nothing fires.
    assert findings("cold_code.py") == []


def test_suppression_comment_is_honoured():
    assert findings("suppressed.py") == []


def test_findings_are_sorted_and_stable():
    first = run_suite([FIXTURES], ["hot"])["hot"]
    second = run_suite([FIXTURES], ["hot"])["hot"]
    assert first == second == sorted(first)


# ----------------------------------------------------------------------
# The hot part of the one cache
# ----------------------------------------------------------------------
def test_warm_cache_skips_extraction(tmp_path, monkeypatch):
    import repro.analysis.hot.core as hot_core

    target = tmp_path / "mod.py"
    target.write_text(
        (FIXTURES / "unslotted_bad.py").read_text())

    calls = []
    real = hot_core.hot_summary_file

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(hot_core, "hot_summary_file", counting)

    cache_dir = tmp_path / "cache"
    cold = run_suite([target], ["hot"], cache_dir)["hot"]
    assert len(cold) == 1 and len(calls) == 1

    calls.clear()
    assert run_suite([target], ["hot"], cache_dir)["hot"] == cold
    assert calls == []  # extraction fully skipped

    target.write_text(target.read_text() + "\n# touched\n")
    assert run_suite([target], ["hot"], cache_dir)["hot"] == cold
    assert len(calls) == 1  # stat change re-extracts


def test_shared_program_parameter_skips_verify_extraction(monkeypatch):
    import repro.analysis.verify.core as verify_core

    target = FIXTURES / "chain_bad.py"
    program = build_program([target], AnalysisCache(None))
    monkeypatch.setattr(verify_core, "summarize_file", None)  # uncallable
    hot = build_hot_program([target], program, AnalysisCache(None))
    assert hot.program is program
    assert hot.enclosing_function(str(target), 5) is not None


# ----------------------------------------------------------------------
# CLI (``repro-analyze --select hot[:RULE]`` and ``--profile``)
# ----------------------------------------------------------------------
def test_cli_exit_codes_and_text_output(capsys):
    assert main([str(FIXTURES / "alloc_ok.py"), "--select", "hot",
                 "--no-cache"]) == 0
    assert "clean" in capsys.readouterr().out
    assert main([str(FIXTURES / "alloc_bad.py"), "--select", "hot",
                 "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert "allocation-in-hot-path" in out


def test_cli_json_format(capsys):
    assert main([str(FIXTURES / "unslotted_bad.py"), "--select", "hot",
                 "--no-cache", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"]["hot"][0]["rule"] == "unslotted-hot-class"


def test_cli_sarif_format(capsys):
    assert main([str(FIXTURES / "unslotted_bad.py"), "--select", "hot",
                 "--no-cache", "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    assert run["tool"]["driver"]["name"] == "repro-analyze/hot"
    assert {rule["id"] for rule in run["tool"]["driver"]["rules"]} \
        == ALL_RULE_IDS
    (result,) = run["results"]
    assert result["ruleId"] == "unslotted-hot-class"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 4
    assert region["startColumn"] == 1  # SARIF columns are 1-based


def test_cli_select_runs_one_rule(capsys):
    assert main([str(FIXTURES / "alloc_bad.py"), "--no-cache",
                 "--select", "hot:unslotted-hot-class"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["--select", "hot:no-such-rule", str(FIXTURES)])


def test_cli_list_rules_and_scenarios(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert all(f"hot:{rule_id}: " in out for rule_id in ALL_RULE_IDS)
    assert main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("fig07", "fault_sweep", "heavy_traffic"):
        assert name in out


def test_cli_budget_requires_profile():
    with pytest.raises(SystemExit):
        main(["--budget", "5", str(FIXTURES)])


# ----------------------------------------------------------------------
# The profile join
# ----------------------------------------------------------------------
class _Queue:
    __slots__ = ("items",)

    def __init__(self):
        self.items = []

    def push(self, value):
        self.items.append(value)


def _profiled_index(module, calls: int = 200) -> HotnessIndex:
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        for _ in range(calls):
            module.hot_path(_Queue(), list(range(50)), 1.0)
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    return HotnessIndex(stats, stats.total_tt)


def test_profile_ranks_hot_finding_above_cold_same_finding():
    module = load_fixture_module("ranked")
    index = _profiled_index(module)
    target = FIXTURES / "ranked.py"
    hot = hot_program(target)
    rows = run_suite([target], ["hot"])["hot"]
    assert len(rows) == 2  # same finding in hot_path and cold_path

    ranked = rank_findings(rows, hot, index)
    (first, first_share), (second, second_share) = ranked
    assert first.line < second.line  # hot_path is defined first
    assert first_share is not None and first_share > 0.0
    assert second_share is None  # cold_path: never profiled


def test_budget_gate_fires_only_on_measured_hot_findings(
        tmp_path, monkeypatch, capsys):
    import repro.analysis.hot.profile as profile_mod

    module = load_fixture_module("ranked")

    def run_fixture(horizon):
        for _ in range(200):
            module.hot_path(_Queue(), list(range(50)), 1.0)
        return horizon

    def run_elsewhere(horizon):
        sum(range(10_000))
        return horizon

    fake = dict(profile_mod._SCENARIOS)
    fake["_fixture"] = ProfileScenario("_fixture", 0.01, run_fixture,
                                       "test scenario")
    fake["_elsewhere"] = ProfileScenario("_elsewhere", 0.01,
                                         run_elsewhere, "test scenario")
    monkeypatch.setattr(profile_mod, "_SCENARIOS", fake)
    assert set(scenarios()) >= {"_fixture", "_elsewhere"}

    target = str(FIXTURES / "ranked.py")
    # The profiled run spends nearly all its time in hot_path, so a
    # small budget trips on that finding...
    assert main([target, "--no-cache", "--profile", "_fixture",
                 "--budget", "1"]) == 1
    out = capsys.readouterr().out
    assert "ranked by '_fixture' profile" in out
    assert "cold" in out  # cold_path's finding is reported, unranked

    # ...while a scenario that never enters the fixture leaves every
    # finding cold and the gate shut.
    assert main([target, "--no-cache", "--profile", "_elsewhere",
                 "--budget", "1"]) == 0
    capsys.readouterr()


def test_unknown_scenario_is_a_usage_error():
    with pytest.raises(SystemExit):
        main(["--profile", "no-such-scenario", str(FIXTURES)])


@pytest.mark.parametrize("name", sorted(scenarios()))
def test_registered_scenarios_run(name):
    # Listing a scenario never calls its runner; a stale call fails here.
    report = profile_scenario(name, horizon=0.05)
    assert report.scenario == name and report.simulated_s > 0.0
