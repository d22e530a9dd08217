"""The ``verify`` pack: rules against cross-module fixtures.

Every rule gets one *bad* fixture (asserting exact rule id and line
numbers) and one *clean* twin (asserting silence).  The interesting
twins are the ones only a call graph can tell apart: ``nondet_ok``
differs from ``nondet_bad`` solely in ``sorted(...)``, and
``reservation_ok`` loops an ``admit()`` whose transactional release
lives in a *different module*.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.front import main, run_suite
from repro.analysis.lint.core import read_files, registered_rules
from repro.analysis.verify.model import Program

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "analysis" / "verify"

ALL_RULE_IDS = {
    "nondeterministic-iteration",
    "dimension-mismatch",
    "untiebroken-event-transitive",
    "unreleased-reservation",
}


def findings(target: str, rule_id: str):
    """(rule, line) pairs from one rule over one fixture file/package."""
    return [(v.rule, v.line) for v in run_suite(
        [FIXTURES / target], [f"verify:{rule_id}"])["verify"]]


def test_registry_has_the_four_program_rules():
    registry = registered_rules()
    assert {key for key in registry if key.startswith("verify:")} == {
        f"verify:{rule_id}" for rule_id in ALL_RULE_IDS}


# ----------------------------------------------------------------------
# nondeterministic-iteration: needs the cross-module call graph — the
# loop body only reaches sim.schedule() through helpers.kick() — and
# knows the deadline heap's ``_push`` as an enqueue of its own.
# ----------------------------------------------------------------------
def test_nondeterministic_iteration_positive():
    assert findings("nondet_bad", "nondeterministic-iteration") == [
        ("nondeterministic-iteration", 13),  # for packet in waiting:
        ("nondeterministic-iteration", 21),  # for packet in set(held):
    ]


def test_nondeterministic_iteration_negative():
    assert findings("nondet_ok", "nondeterministic-iteration") == []


# ----------------------------------------------------------------------
# dimension-mismatch: inference from units constructors, parameter
# names, and annotated constants.
# ----------------------------------------------------------------------
def test_dimension_mismatch_positive():
    assert findings("dims_bad.py", "dimension-mismatch") == [
        ("dimension-mismatch", 10),  # deadline + rate
        ("dimension-mismatch", 14),  # length < holding
        ("dimension-mismatch", 18),  # schedule_at(rate, ...)
        ("dimension-mismatch", 22),  # ms(...) + Mbps(...)
    ]


def test_dimension_mismatch_negative():
    assert findings("dims_ok.py", "dimension-mismatch") == []


# ----------------------------------------------------------------------
# untiebroken-event-transitive: tree-wide (tests/analysis/test_lint.py
# holds the net/sched/faults fixtures of the per-file rule it replaced).
# ----------------------------------------------------------------------
def test_untiebroken_event_transitive_positive():
    assert findings("untiebroken_bad.py", "untiebroken-event-transitive") == [
        ("untiebroken-event-transitive", 5),  # sim.schedule(0.0, callback)
        ("untiebroken-event-transitive", 9),  # sim.schedule_at(when, callback)
    ]


def test_untiebroken_event_transitive_negative():
    assert findings("untiebroken_ok.py", "untiebroken-event-transitive") == []


# ----------------------------------------------------------------------
# unreleased-reservation: the bad fixture loops reserve() with no
# release anywhere; the clean one loops a transactional admit() that
# only the call graph can see through.
# ----------------------------------------------------------------------
def test_unreleased_reservation_positive():
    assert findings("reservation_bad.py", "unreleased-reservation") == [
        ("unreleased-reservation", 6),  # procedure.reserve(session) in loop
    ]


def test_unreleased_reservation_negative():
    assert findings("reservation_ok", "unreleased-reservation") == []


# ----------------------------------------------------------------------
# Suppressions flow through the Program just like in the lint pack.
# ----------------------------------------------------------------------
def test_suppression_silences_exactly_the_named_rule(tmp_path):
    source = (
        "def arm(sim, cb):\n"
        "    sim.schedule(0.0, cb)"
        "  # repro: disable=untiebroken-event-transitive -- test\n"
        "    sim.schedule(1.0, cb)\n"
    )
    path = tmp_path / "suppressed.py"
    path.write_text(source)
    assert [(v.rule, v.line)
            for v in run_suite([path], ["verify"])["verify"]] == [
        ("untiebroken-event-transitive", 3),
    ]


# ----------------------------------------------------------------------
# Program model basics.
# ----------------------------------------------------------------------
def test_program_resolves_cross_module_calls():
    program = Program(read_files([FIXTURES / "nondet_bad"]))
    summary, drain = program.functions["nondet_bad.sched:drain"]
    assert any(program.call_reaches_sink(summary["module"], call)
               for call in drain["calls"])


def test_program_sees_transactional_release_across_modules():
    program = Program(read_files([FIXTURES / "reservation_ok"]))
    summary, admit = (
        program.functions["reservation_ok.controller:Controller.admit"])
    assert admit["has_try"]
    assert any(program.call_reaches_release(summary["module"], call)
               for call in admit["handler_calls"])


# ----------------------------------------------------------------------
# CLI (``repro-analyze --select verify[:RULE]``).
# ----------------------------------------------------------------------
def test_cli_exit_codes_and_json(capsys):
    bad = str(FIXTURES / "untiebroken_bad.py")
    ok = str(FIXTURES / "untiebroken_ok.py")

    assert main([bad, "--select", "verify"]) == 1
    out = capsys.readouterr().out
    assert "untiebroken-event-transitive" in out

    assert main([ok, "--select", "verify"]) == 0
    capsys.readouterr()  # drop the "clean" line before the JSON run

    assert main([bad, "--select", "verify", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [row["rule"] for row in payload["findings"]["verify"]] == [
        "untiebroken-event-transitive"] * 2


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert f"verify:{rule_id}: " in out


def test_cli_select_unknown_rule_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([str(FIXTURES / "dims_ok.py"), "--select",
              "verify:no-such-rule"])
    assert excinfo.value.code == 2
