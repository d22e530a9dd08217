"""``repro-analyze``: the one front door over the three rule packs.

The contracts under test: every pack runs by default and their
exit codes merge; ``--select`` filters at pack and pack:rule grain;
the whole-program packs share one assembled Program extracted once;
one SARIF log carries one run per pack; a run is stateless — it reads
source and writes stdout, nothing else; and the front door is the
*only* door — the retired per-analyzer commands, the cache, the
changed-files filter and the profile join are gone, not forwarded.
"""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.front import main
from repro.analysis.lint.core import PACKS

VERIFY_FIXTURES = (Path(__file__).resolve().parent.parent / "fixtures"
                   / "analysis" / "verify")
#: One finding, of ``verify:unreleased-reservation``, and nothing else.
RESERVATION_BAD = VERIFY_FIXTURES / "reservation_bad.py"

CLEAN = "X = 1\n"
WALLCLOCK_BAD = "import time\n\nNOW = time.time()\n"


def test_every_pack_runs_by_default(tmp_path, capsys):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN)
    assert main([str(target)]) == 0
    out = capsys.readouterr().out
    for name in PACKS:
        assert f"== {name} ==" in out


def test_exit_codes_merge_across_analyzers(tmp_path, capsys):
    # A lint-only finding and a verify-only finding both drive exit 1,
    # whichever analyzer produced them.
    lint_bad = tmp_path / "lint_bad.py"
    lint_bad.write_text(WALLCLOCK_BAD)
    assert main([str(lint_bad)]) == 1
    assert "no-wallclock" in capsys.readouterr().out

    assert main([str(RESERVATION_BAD)]) == 1
    assert "unreleased-reservation" in capsys.readouterr().out


def test_select_analyzer_grain(tmp_path, capsys):
    target = tmp_path / "lint_bad.py"
    target.write_text(WALLCLOCK_BAD)
    # Only det selected: the lint finding is invisible, exit 0.
    assert main([str(target), "--select", "det"]) == 0
    out = capsys.readouterr().out
    assert "== det ==" in out
    assert "== lint ==" not in out


def test_select_rule_grain(capsys):
    target = str(RESERVATION_BAD)
    assert main([target, "--select", "verify:dimension-mismatch"]) == 0
    capsys.readouterr()
    assert main([target, "--select", "verify:unreleased-reservation"]) == 1
    assert "unreleased-reservation" in capsys.readouterr().out


def test_select_rejects_unknown_names():
    # "hot" was a pack until its rules retired to the hop budget.
    for item in ("nosuch", "verify:nosuch", "hot", "hot:nosuch"):
        with pytest.raises(SystemExit):
            main(["--select", item, str(VERIFY_FIXTURES)])


def test_list_rules_spans_all_analyzers(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "lint:no-wallclock" in out
    assert "verify:" in out
    assert "det:unordered-merge" in out
    assert len(out.splitlines()) == 7


def test_one_extraction_feeds_every_whole_program_pack(
        tmp_path, monkeypatch, capsys):
    """Every pack shares one read, one parse and one summary."""
    import repro.analysis.verify.model as verify_model

    target = tmp_path / "ok.py"
    target.write_text(CLEAN)

    reads, parses, summaries = [], [], []
    read_text, parse = Path.read_text, ast.parse
    summarize = verify_model.summarize

    def counting_read(path, *args, **kwargs):
        reads.append(path)
        return read_text(path, *args, **kwargs)

    def counting_parse(source, *args, **kwargs):
        parses.append(kwargs.get("filename"))
        return parse(source, *args, **kwargs)

    def counting_summarize(context):
        summaries.append(context.path)
        return summarize(context)

    monkeypatch.setattr(Path, "read_text", counting_read)
    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(verify_model, "summarize", counting_summarize)

    assert main([str(target)]) == 0
    capsys.readouterr()
    assert reads == [target]
    assert parses == [str(target)]
    assert summaries == [target]


def test_a_run_leaves_the_cwd_untouched(tmp_path, monkeypatch, capsys):
    # The default run used to drop a cache directory here.
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main([str(VERIFY_FIXTURES)]) == 1
    capsys.readouterr()
    assert list(cwd.iterdir()) == []


def test_every_run_reads_the_source_afresh(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text(CLEAN)
    assert main([str(tmp_path)]) == 0
    capsys.readouterr()

    target.write_text(WALLCLOCK_BAD)
    assert main([str(tmp_path)]) == 1
    assert "no-wallclock" in capsys.readouterr().out

    target.write_text(CLEAN)
    assert main([str(tmp_path)]) == 0


def test_a_non_utf8_file_is_an_error_not_a_finding(tmp_path, capsys):
    # It used to escape as a UnicodeDecodeError traceback with exit 1,
    # the code for "findings".
    target = tmp_path / "latin1.py"
    target.write_bytes(b"NAME = '\xff'\n")
    assert main([str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"repro-analyze: error: {target}: not UTF-8: ")


def test_sarif_log_has_one_run_per_analyzer(tmp_path, capsys):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN)
    assert main([str(target), "--format", "sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    names = [run["tool"]["driver"]["name"] for run in log["runs"]]
    assert names == [f"repro-analyze/{pack}" for pack in PACKS]


def test_json_format_groups_by_analyzer(capsys):
    assert main([str(RESERVATION_BAD), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["findings"]) == set(PACKS)
    (finding,) = payload["findings"]["verify"]
    assert finding["rule"] == "unreleased-reservation"
    assert payload["findings"]["lint"] == payload["findings"]["det"] == []


# ----------------------------------------------------------------------
# The surface: one console script, no per-analyzer CLI modules, no
# cache / changed-files / profile-join flags or modules
# ----------------------------------------------------------------------
def test_console_scripts_are_exactly_the_two_front_doors():
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    table = pyproject.read_text().split("[project.scripts]\n")[1]
    scripts = table.split("\n[")[0].strip().splitlines()
    assert scripts == ['leave-in-time = "repro.cli:main"',
                       'repro-analyze = "repro.analysis.front:main"']


@pytest.mark.parametrize("pack", PACKS + ("hot",))
def test_retired_cli_modules_are_gone_not_forwarded(pack):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"repro.analysis.{pack}.cli")
    result = subprocess.run(
        [sys.executable, "-m", f"repro.analysis.{pack}", "--list-rules"],
        capture_output=True, text=True)
    assert result.returncode != 0
    # A package, not a command (or, for the retired hot pack, neither).
    assert f"No module named repro.analysis.{pack}" in result.stderr


@pytest.mark.parametrize("argv", [
    ["--no-cache"],
    ["--cache-dir", "cache"],
    ["--changed"],
    ["--since", "HEAD"],
    ["--profile", "fig07"],
    ["--budget", "5"],
    ["--list-scenarios"],
    ["--scenario", "fig07"],
], ids=lambda argv: argv[0])
def test_removed_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([str(VERIFY_FIXTURES)] + argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("module", [
    "lint.cache", "lint.changed", "hot.profile", "verify.core",
    "hot.core", "hot.rules", "hot.model"])
def test_removed_modules_are_gone_not_aliased(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"repro.analysis.{module}")
