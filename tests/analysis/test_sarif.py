"""SARIF 2.1.0 reporter shared by the analyzer suite.

Checks the subset GitHub code scanning actually reads: log/run shape,
rule metadata + index wiring, 1-based regions, and repo-relative
URIs.  Multi-section logs (the front door's case) must come out as
one run per pack, in order.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.lint.core import Violation
from repro.analysis.sarif import render_sarif, sarif_log

V1 = Violation(path="src/repro/sim/kernel.py", line=10, col=4,
               rule="no-wallclock", message="wall clock read")
V2 = Violation(path="src/repro/sched/edd.py", line=3, col=0,
               rule="dimension-mismatch", message="time + rate")


def test_log_shape_and_version():
    log = sarif_log([("repro-analyze/lint", {"no-wallclock": "desc"}, [V1])])
    assert log["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in log["$schema"]
    (run,) = log["runs"]
    assert run["tool"]["driver"]["name"] == "repro-analyze/lint"


def test_rule_metadata_and_index_agree():
    meta = {"no-wallclock": "forbids wall-clock reads",
            "unused-rule": "never fires"}
    log = sarif_log([("repro-analyze/lint", meta, [V1])])
    (run,) = log["runs"]
    rules = run["tool"]["driver"]["rules"]
    ids = [rule["id"] for rule in rules]
    assert ids == sorted(ids)  # stable order
    (result,) = run["results"]
    assert ids[result["ruleIndex"]] == result["ruleId"]
    by_id = {rule["id"]: rule for rule in rules}
    assert by_id["no-wallclock"]["shortDescription"]["text"] == \
        "forbids wall-clock reads"


def test_unregistered_rule_still_gets_an_entry():
    # A violation whose rule is missing from the metadata (e.g. a
    # dynamically added rule) must not produce a dangling ruleIndex.
    log = sarif_log([("repro-analyze/verify", {}, [V2])])
    (run,) = log["runs"]
    (result,) = run["results"]
    rules = run["tool"]["driver"]["rules"]
    assert rules[result["ruleIndex"]]["id"] == "dimension-mismatch"


def test_region_is_one_based_and_uri_relative():
    log = sarif_log([("repro-analyze/lint", {}, [V2])])
    (result,) = log["runs"][0]["results"]
    location = result["locations"][0]["physicalLocation"]
    assert location["region"] == {"startLine": 3, "startColumn": 1}
    assert location["artifactLocation"]["uri"] == \
        "src/repro/sched/edd.py"
    assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"


def test_absolute_paths_are_relativized_to_cwd():
    absolute = str(Path.cwd() / "src" / "x.py")
    violation = Violation(path=absolute, line=1, col=0,
                          rule="r", message="m")
    log = sarif_log([("tool", {}, [violation])])
    uri = log["runs"][0]["results"][0]["locations"][0][
        "physicalLocation"]["artifactLocation"]["uri"]
    assert uri == "src/x.py"


def test_one_run_per_section_in_order():
    log = sarif_log([
        ("repro-analyze/lint", {}, [V1]),
        ("repro-analyze/det", {}, []),
        ("repro-analyze/verify", {}, [V2]),
    ])
    names = [run["tool"]["driver"]["name"] for run in log["runs"]]
    assert names == ["repro-analyze/lint", "repro-analyze/det",
                     "repro-analyze/verify"]
    assert [len(run["results"]) for run in log["runs"]] == [1, 0, 1]


def test_render_is_valid_sorted_json():
    rendered = render_sarif([("repro-analyze/lint", {}, [V1])])
    assert json.loads(rendered)["version"] == "2.1.0"
