"""The ``hot`` pack.

Each rule gets a *bad* fixture (exact rule ids and line numbers) and a
*clean* twin (silence).  Reachability is the scoping contract under
test: identical patterns in code that never reaches a
``schedule``/``push`` sink must stay silent.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.front import main, run_suite
from repro.analysis.lint.core import read_files, registered_rules, run_rules
from repro.analysis.verify import Program

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


def test_shared_program_parameter_skips_verify_extraction(monkeypatch):
    """The hot rules check the Program the other packs check: its one
    summary per file carries their facts, so nothing is read again."""
    program = Program(read_files([FIXTURES / "chain_bad.py"]))
    monkeypatch.setattr(Path, "read_text", None)  # uncallable
    rules = [rule() for key, rule in registered_rules().items()
             if key.startswith("hot:")]
    assert {v.rule for v in run_rules(rules, program)} == {
        "attribute-chain-in-hot-loop"}


# ----------------------------------------------------------------------
# CLI (``repro-analyze --select hot[:RULE]``)
# ----------------------------------------------------------------------
def test_cli_exit_codes_and_text_output(capsys):
    assert main([str(FIXTURES / "alloc_ok.py"), "--select", "hot"]) == 0
    assert "clean" in capsys.readouterr().out
    assert main([str(FIXTURES / "alloc_bad.py"), "--select", "hot"]) == 1
    out = capsys.readouterr().out
    assert "allocation-in-hot-path" in out


def test_cli_json_format(capsys):
    assert main([str(FIXTURES / "unslotted_bad.py"), "--select", "hot",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"]["hot"][0]["rule"] == "unslotted-hot-class"


def test_cli_sarif_format(capsys):
    assert main([str(FIXTURES / "unslotted_bad.py"), "--select", "hot",
                 "--format", "sarif"]) == 1
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
    assert main([str(FIXTURES / "alloc_bad.py"),
                 "--select", "hot:unslotted-hot-class"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["--select", "hot:no-such-rule", str(FIXTURES)])


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert all(f"hot:{rule_id}: " in out for rule_id in ALL_RULE_IDS)
