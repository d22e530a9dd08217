"""``repro-analyze``: the one front door over the four rule packs.

The contracts under test: all four packs run by default and their
exit codes merge; ``--select`` filters at pack and pack:rule grain;
the whole-program packs share one assembled Program extracted once
into one cache file; one SARIF log carries one run per pack; and the
front door is the *only* door — the retired per-analyzer commands
and modules are gone, not forwarded.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.front import main
from repro.analysis.lint.core import PACKS

HOT_FIXTURES = (Path(__file__).resolve().parent.parent / "fixtures"
                / "analysis" / "hot")

CLEAN = "X = 1\n"
WALLCLOCK_BAD = "import time\n\nNOW = time.time()\n"


def test_all_four_analyzers_run_by_default(tmp_path, capsys):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN)
    assert main([str(target), "--no-cache"]) == 0
    out = capsys.readouterr().out
    for name in PACKS:
        assert f"== {name} ==" in out


def test_exit_codes_merge_across_analyzers(tmp_path, capsys):
    # A lint-only finding and a hot-only finding both drive exit 1,
    # whichever analyzer produced them.
    lint_bad = tmp_path / "lint_bad.py"
    lint_bad.write_text(WALLCLOCK_BAD)
    assert main([str(lint_bad), "--no-cache"]) == 1
    assert "no-wallclock" in capsys.readouterr().out

    assert main([str(HOT_FIXTURES / "unslotted_bad.py"),
                 "--no-cache"]) == 1
    assert "unslotted-hot-class" in capsys.readouterr().out


def test_select_analyzer_grain(tmp_path, capsys):
    target = tmp_path / "lint_bad.py"
    target.write_text(WALLCLOCK_BAD)
    # Only hot selected: the lint finding is invisible, exit 0.
    assert main([str(target), "--no-cache", "--select", "hot"]) == 0
    out = capsys.readouterr().out
    assert "== hot ==" in out
    assert "== lint ==" not in out


def test_select_rule_grain(capsys):
    target = str(HOT_FIXTURES / "alloc_bad.py")
    assert main([target, "--no-cache", "--select",
                 "hot:unslotted-hot-class"]) == 0
    capsys.readouterr()
    assert main([target, "--no-cache", "--select",
                 "hot:allocation-in-hot-path"]) == 1
    assert "allocation-in-hot-path" in capsys.readouterr().out


def test_select_rejects_unknown_names():
    with pytest.raises(SystemExit):
        main(["--select", "nosuch", str(HOT_FIXTURES)])
    with pytest.raises(SystemExit):
        main(["--select", "hot:nosuch", str(HOT_FIXTURES)])


def test_list_rules_spans_all_analyzers(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "lint:no-wallclock" in out
    assert "verify:" in out
    assert "det:" in out
    assert "hot:unslotted-hot-class" in out


def test_front_door_writes_one_cache_file(tmp_path, capsys):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN)
    cache_dir = tmp_path / "cache"
    assert main([str(target), "--cache-dir", str(cache_dir)]) == 0
    capsys.readouterr()
    # One file, one entry per source, every per-file product in it.
    assert [path.name for path in cache_dir.iterdir()] == ["analysis.json"]
    document = json.loads((cache_dir / "analysis.json").read_text())
    (entry,) = document["entries"].values()
    assert set(entry["payload"]) == {"violations", "summary", "hot"}


def test_front_door_reuses_the_verify_cache(tmp_path, monkeypatch,
                                            capsys):
    import repro.analysis.verify.core as verify_core

    target = tmp_path / "ok.py"
    target.write_text(CLEAN)
    cache_dir = tmp_path / "cache"

    calls = []
    real = verify_core.summarize_file

    def counting(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(verify_core, "summarize_file", counting)

    assert main([str(target), "--cache-dir", str(cache_dir),
                 "--select", "verify", "--select", "det"]) == 0
    capsys.readouterr()
    assert len(calls) == 1  # one extraction feeds both packs

    calls.clear()
    assert main([str(target), "--cache-dir", str(cache_dir),
                 "--select", "hot"]) == 0
    capsys.readouterr()
    assert calls == []  # warm: hot joins onto the cached summary


def test_sarif_log_has_one_run_per_analyzer(tmp_path, capsys):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN)
    assert main([str(target), "--no-cache", "--format",
                 "sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    names = [run["tool"]["driver"]["name"] for run in log["runs"]]
    assert names == [f"repro-analyze/{pack}" for pack in PACKS]


def test_json_format_groups_by_analyzer(capsys):
    assert main([str(HOT_FIXTURES / "unslotted_bad.py"), "--no-cache",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["findings"]) == set(PACKS)
    (finding,) = payload["findings"]["hot"]
    assert finding["rule"] == "unslotted-hot-class"
    assert payload["findings"]["lint"] == []


# ----------------------------------------------------------------------
# --changed with nothing changed, in the machine-readable formats
# ----------------------------------------------------------------------
def _git(cwd, *args):
    subprocess.run(["git", *args], cwd=cwd, check=True,
                   capture_output=True, text=True)


def test_changed_with_no_changes_still_emits_a_document(
        tmp_path, monkeypatch, capsys):
    _git(tmp_path, "init", "-q", "-b", "main")
    _git(tmp_path, "config", "user.email", "t@example.invalid")
    _git(tmp_path, "config", "user.name", "t")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "ok.py").write_text(CLEAN)
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    monkeypatch.chdir(tmp_path)
    argv = ["src", "--changed", "--since", "HEAD", "--no-cache"]

    assert main(argv + ["--format", "sarif"]) == 0
    log = json.loads(capsys.readouterr().out)  # was: a text line
    assert log["version"] == "2.1.0"
    assert [run["results"] for run in log["runs"]] == [[]] * len(PACKS)

    assert main(argv + ["--format", "json", "--select", "hot"]) == 0
    assert json.loads(capsys.readouterr().out)["findings"] == {"hot": []}

    assert main(argv) == 0
    assert capsys.readouterr().out == "clean (no changed files)\n"


# ----------------------------------------------------------------------
# The surface: one console script, no per-analyzer CLI modules
# ----------------------------------------------------------------------
def test_console_scripts_are_exactly_the_two_front_doors():
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    table = pyproject.read_text().split("[project.scripts]\n")[1]
    scripts = table.split("\n[")[0].strip().splitlines()
    assert scripts == ['leave-in-time = "repro.cli:main"',
                       'repro-analyze = "repro.analysis.front:main"']


@pytest.mark.parametrize("pack", PACKS)
def test_retired_cli_modules_are_gone_not_forwarded(pack):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"repro.analysis.{pack}.cli")
    result = subprocess.run(
        [sys.executable, "-m", f"repro.analysis.{pack}", "--list-rules"],
        capture_output=True, text=True)
    assert result.returncode != 0
    assert "__main__" in result.stderr  # a package, not a command
