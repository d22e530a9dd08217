"""The ``lint`` pack: rules against known-violation fixtures.

Every rule gets at least one positive fixture (asserting exact rule id
and line numbers) and one negative fixture (asserting silence); the
suppression fixture checks that ``# repro: disable=`` silences exactly
the named rule on exactly its own line.  Everything runs through the
one front door (``run_suite`` / ``front.main --select lint[:RULE]``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.front import main, run_suite
from repro.analysis.lint import (
    FileContext,
    Violation,
    registered_rules,
    render_text,
    run_rules,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "analysis"

ALL_RULE_IDS = {
    "no-wallclock",
    "raw-unit-literal",
}


def findings(fixture: str, rule_id: str, pack: str = "lint"):
    """(rule, line) pairs from running one rule over one fixture."""
    return [(v.rule, v.line) for v in run_suite(
        [FIXTURES / fixture], [f"{pack}:{rule_id}"])[pack]]


def test_registry_has_the_shipped_rules():
    registry = registered_rules()
    assert {key for key in registry if key.startswith("lint:")} == {
        f"lint:{rule_id}" for rule_id in ALL_RULE_IDS}
    for key, rule_class in registry.items():
        assert key.partition(":")[2] == rule_class.id
        assert rule_class.description


# ----------------------------------------------------------------------
# Per-rule positive and negative fixtures
# ----------------------------------------------------------------------
def test_no_wallclock_positive():
    assert findings("no_wallclock_bad.py", "no-wallclock") == [
        ("no-wallclock", 4),   # from time import perf_counter
        ("no-wallclock", 8),   # time.time()
        ("no-wallclock", 9),   # time.sleep()
        ("no-wallclock", 10),  # datetime.datetime.now()
    ]


def test_no_wallclock_negative():
    assert findings("no_wallclock_ok.py", "no-wallclock") == []


def test_raw_unit_literal_positive():
    assert findings("raw_unit_literal_bad.py", "raw-unit-literal") == [
        ("raw-unit-literal", 5),  # rate=32000.0
        ("raw-unit-literal", 6),  # l_max=424
        ("raw-unit-literal", 7),  # spacing=13.25
        ("raw-unit-literal", 8),  # schedule(1.0, ...)
    ]


def test_raw_unit_literal_negative():
    assert findings("raw_unit_literal_ok.py", "raw-unit-literal") == []


# ----------------------------------------------------------------------
# The culled per-file ``untiebroken-event`` rule: its fixtures stay, as
# the check that verify's tree-wide transitive rule really supersets it
# (same files, same lines).
# ----------------------------------------------------------------------
TRANSITIVE = "untiebroken-event-transitive"


def test_untiebroken_event_positive():
    assert findings("net/untiebroken_bad.py", TRANSITIVE, "verify") == [
        (TRANSITIVE, 5),  # schedule(...)
        (TRANSITIVE, 6),  # schedule_at(...)
    ]


def test_untiebroken_event_negative_with_priority():
    assert findings("net/untiebroken_ok.py", TRANSITIVE, "verify") == []


def test_untiebroken_event_covers_sched_layer():
    assert findings("sched/untiebroken_bad.py", TRANSITIVE, "verify") == [
        (TRANSITIVE, 5),  # schedule_at(...)
    ]


def test_untiebroken_event_covers_faults_layer():
    assert findings("faults/untiebroken_bad.py", TRANSITIVE, "verify") == [
        (TRANSITIVE, 5),  # schedule_at(down_at, ...)
        (TRANSITIVE, 6),  # schedule_at(up_at, ...)
    ]


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_suppression_silences_exactly_its_line_and_rule():
    violations = run_suite([FIXTURES / "suppressed.py"], ["lint"])["lint"]
    got = [(v.rule, v.line) for v in violations]
    # Line 7 suppressed; line 8 not; line 9 suppressed via a comma
    # list; line 10 names the wrong rule so the finding stands.
    assert got == [("no-wallclock", 8), ("no-wallclock", 10)]


def test_suppression_requires_matching_rule_id():
    source = "import time\nt = time.time()  # repro: disable=no-wallclock\n"
    rules = [registered_rules()["lint:no-wallclock"]()]
    assert run_rules(rules, FileContext(Path("inline.py"), source)) == []
    wrong = source.replace("no-wallclock", "raw-unit-literal")
    remaining = run_rules(rules, FileContext(Path("inline.py"), wrong))
    assert [(v.rule, v.line) for v in remaining] == [("no-wallclock", 2)]


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def test_text_reporter_formats_gcc_style():
    violation = Violation(path="a.py", line=3, col=4,
                          rule="no-wallclock", message="boom")
    text = render_text([violation])
    assert "a.py:3:4: no-wallclock: boom" in text
    assert "1 violation (no-wallclock x1)" in text
    assert "clean" in render_text([], files_checked=5)


def test_json_reporter_round_trips(capsys):
    assert main(["--select", "lint:no-wallclock", "--format", "json",
                 str(FIXTURES / "no_wallclock_bad.py")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    rows = payload["findings"]["lint"]
    assert [row["rule"] for row in rows] == ["no-wallclock"] * 4
    assert rows[0]["line"] == 4
    assert Violation(**rows[0]).render().startswith(
        str(FIXTURES / "no_wallclock_bad.py") + ":4:")


# ----------------------------------------------------------------------
# CLI behaviour (``repro-analyze --select lint[:RULE]``)
# ----------------------------------------------------------------------
def test_cli_exits_nonzero_on_fixtures(capsys):
    status = main(["--select", "lint",
                   str(FIXTURES / "no_wallclock_bad.py")])
    out = capsys.readouterr().out
    assert status == 1
    assert "no_wallclock_bad.py:8:" in out


def test_cli_exits_zero_on_clean_file(capsys):
    status = main(["--select", "lint",
                   str(FIXTURES / "no_wallclock_ok.py")])
    assert status == 0
    assert "clean" in capsys.readouterr().out


def test_cli_select_limits_rules(capsys):
    status = main(["--select", "lint:raw-unit-literal",
                   str(FIXTURES / "no_wallclock_bad.py")])
    assert status == 0  # the wallclock fixture has no raw literals


def test_cli_rejects_unknown_rule():
    for item in ("lint:no-such-rule", "no-wallclock"):  # bare id: no pack
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", item, str(FIXTURES)])
        assert excinfo.value.code == 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert f"lint:{rule_id}: " in out


def test_cli_json_format(capsys):
    status = main(["--select", "lint", "--format", "json",
                   str(FIXTURES / "raw_unit_literal_bad.py")])
    assert status == 1
    payload = json.loads(capsys.readouterr().out)
    assert [row["rule"] for row in payload["findings"]["lint"]] == [
        "raw-unit-literal"] * 4


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "lint:no-wallclock" in result.stdout
    assert "verify:dimension-mismatch" in result.stdout  # the front door


def test_directory_scan_finds_every_rule_at_least_once():
    violations = run_suite([FIXTURES], ["lint"])["lint"]
    assert {v.rule for v in violations} == ALL_RULE_IDS
