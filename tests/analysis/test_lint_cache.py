"""The suite's one cache file and the ``--changed`` fast path.

The cache contract under test: a warm run re-extracts *nothing*; any
stat change (content edit, ``touch``) or extraction-source edit
invalidates; ``--no-cache`` and a lint ``--select`` subset bypass;
corrupt cache files are rebuilt, not trusted.  The ``--changed`` tests
run against a throwaway git repository built in ``tmp_path``.
"""

from __future__ import annotations

import json
import subprocess

import pytest

import repro.analysis.hot.core as hot_core
import repro.analysis.lint.cache as cache_mod
import repro.analysis.lint.core as lint_core
import repro.analysis.verify.core as verify_core
from repro.analysis.front import main
from repro.analysis.lint.cache import AnalysisCache, implementation_fingerprint
from repro.analysis.lint.changed import (
    GitError,
    changed_python_files,
    resolve_base_revision,
)

BAD_SOURCE = "import time\n\nNOW = time.time()\n"
OK_SOURCE = "X = 1\n"


# ----------------------------------------------------------------------
# AnalysisCache unit behaviour
# ----------------------------------------------------------------------
def test_cache_round_trip_and_stat_invalidation(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(OK_SOURCE)
    extract = {"violations": lambda path: [],
               "summary": lambda path: {"module": "mod"}}

    cache = AnalysisCache(tmp_path / "cache")
    assert cache.lookup(target, "violations", extract["violations"]) == []
    assert (cache.hits, cache.misses) == (0, 1)  # cold
    assert cache.lookup(target, "violations", None) == []  # no re-extract
    cache.save()

    reloaded = AnalysisCache(tmp_path / "cache")
    assert reloaded.lookup(target, "violations", None) == []
    assert reloaded.hits == 1
    # Parts of one file's entry accumulate side by side.
    assert reloaded.lookup(target, "summary", extract["summary"]) == {
        "module": "mod"}
    assert reloaded.lookup(target, "violations", None) == []

    target.write_text(OK_SOURCE + "Y = 2\n")  # stat signature changes
    assert reloaded.lookup(target, "violations", lambda path: ["new"]) \
        == ["new"]
    # ...and drops the file's whole entry, not just the part asked for.
    assert reloaded.lookup(target, "summary", lambda path: "fresh") \
        == "fresh"


def test_cache_rejects_corrupt_and_wrong_fingerprint_files(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(OK_SOURCE)
    cache_file = tmp_path / "cache" / "analysis.json"
    cache_file.parent.mkdir()
    fresh = [lambda path: "fresh"]

    cache_file.write_text("not json{")
    assert AnalysisCache(tmp_path / "cache").lookup(
        target, "summary", *fresh) == "fresh"

    cache_file.write_text(json.dumps({
        "fingerprint": "0" * 64,
        "entries": {str(target): {
            "stat": None, "payload": {"summary": "stale"}}}}))
    assert AnalysisCache(tmp_path / "cache").lookup(
        target, "summary", *fresh) == "fresh"


def test_memory_only_cache_touches_no_disk(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "mod.py"
    target.write_text(OK_SOURCE)
    cache = AnalysisCache(None)
    assert cache.lookup(target, "summary", lambda path: 1) == 1
    cache.save()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["mod.py"]


def test_fingerprint_is_stable_within_a_process():
    assert implementation_fingerprint() == implementation_fingerprint()
    assert len(implementation_fingerprint()) == 64


@pytest.mark.parametrize("edited", range(len(cache_mod._IMPL_FILES)))
def test_editing_any_extraction_source_invalidates_the_cache_file(
        tmp_path, monkeypatch, edited):
    # Stand-ins for lint/core.py, lint/rules.py, verify/model.py and
    # hot/model.py: an edit to any one rolls the single fingerprint, and
    # a cache file written before the edit comes back cold.
    impl = [tmp_path / f"impl{index}.py"
            for index in range(len(cache_mod._IMPL_FILES))]
    for path in impl:
        path.write_text("VERSION = 1\n")
    monkeypatch.setattr(cache_mod, "_IMPL_FILES", tuple(impl))

    target = tmp_path / "mod.py"
    target.write_text(OK_SOURCE)
    cache = AnalysisCache(tmp_path / "cache")
    cache.lookup(target, "hot", lambda path: {})
    cache.save()
    assert AnalysisCache(tmp_path / "cache").lookup(
        target, "hot", None) == {}

    before = implementation_fingerprint()
    impl[edited].write_text("VERSION = 2\n")
    assert implementation_fingerprint() != before
    stale = AnalysisCache(tmp_path / "cache")
    assert stale.lookup(target, "hot", lambda path: "fresh") == "fresh"
    assert stale.misses == 1


def test_fingerprint_covers_exactly_the_sources_whose_output_is_cached():
    names = [path.relative_to(cache_mod._ANALYSIS_DIR).as_posix()
             for path in cache_mod._IMPL_FILES]
    assert names == ["lint/core.py", "lint/rules.py", "verify/model.py",
                     "hot/model.py"]
    assert all(path.is_file() for path in cache_mod._IMPL_FILES)


# ----------------------------------------------------------------------
# CLI: warm runs re-extract nothing
# ----------------------------------------------------------------------
def _count_extractions(monkeypatch):
    """Every per-file extractor the suite has, wrapped to log calls."""
    calls = []
    for module, name in ((lint_core, "analyze_file"),
                         (verify_core, "summarize_file"),
                         (hot_core, "hot_summary_file")):
        def counting(path, *rest, _real=getattr(module, name),
                     _name=name):
            calls.append((_name, path))
            return _real(path, *rest)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_warm_cli_run_skips_analysis_entirely(tmp_path, monkeypatch, capsys):
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    (tmp_path / "ok.py").write_text(OK_SOURCE)
    cache_dir = str(tmp_path / "cache")
    calls = _count_extractions(monkeypatch)

    assert main([str(tmp_path), "--cache-dir", cache_dir]) == 1
    # cold: both files, each extracted once per part — never twice
    assert sorted(calls) == sorted(
        (name, tmp_path / leaf)
        for name in ("analyze_file", "summarize_file", "hot_summary_file")
        for leaf in ("bad.py", "ok.py"))
    cold_out = capsys.readouterr().out
    assert "no-wallclock" in cold_out

    calls.clear()
    assert main([str(tmp_path), "--cache-dir", cache_dir]) == 1
    assert calls == []  # warm full run: zero re-extraction, all packs
    assert "no-wallclock" in capsys.readouterr().out  # findings replayed

    # Editing one file re-extracts exactly that file.
    (tmp_path / "ok.py").write_text(OK_SOURCE + "Y = 2\n")
    calls.clear()
    assert main([str(tmp_path), "--cache-dir", cache_dir]) == 1
    assert {path for _name, path in calls} == {tmp_path / "ok.py"}
    assert len(calls) == 3


def test_no_cache_flag_always_reanalyzes(tmp_path, monkeypatch):
    (tmp_path / "ok.py").write_text(OK_SOURCE)
    cache_dir = str(tmp_path / "cache")
    calls = _count_extractions(monkeypatch)
    for _ in range(2):
        assert main([str(tmp_path), "--cache-dir", cache_dir,
                     "--no-cache"]) == 0
    assert len(calls) == 2 * 3  # every part, both times
    assert not (tmp_path / "cache").exists()


def test_select_subset_bypasses_the_cache(tmp_path, monkeypatch):
    (tmp_path / "bad.py").write_text(BAD_SOURCE)
    cache_dir = str(tmp_path / "cache")
    calls = _count_extractions(monkeypatch)
    # A subset run must not seed the cache with subset results...
    assert main([str(tmp_path), "--cache-dir", cache_dir,
                 "--select", "lint:raw-unit-literal"]) == 0
    assert not (tmp_path / "cache").exists()
    # ...and a later full-pack run must analyze from scratch.
    calls.clear()
    assert main([str(tmp_path), "--cache-dir", cache_dir,
                 "--select", "lint"]) == 1
    assert len(calls) == 1


# ----------------------------------------------------------------------
# --changed against a throwaway git repository
# ----------------------------------------------------------------------
def _git(cwd, *args):
    subprocess.run(["git", *args], cwd=cwd, check=True,
                   capture_output=True, text=True)


@pytest.fixture()
def git_repo(tmp_path, monkeypatch):
    _git(tmp_path, "init", "-q", "-b", "main")
    _git(tmp_path, "config", "user.email", "t@example.invalid")
    _git(tmp_path, "config", "user.name", "t")
    src = tmp_path / "src"
    src.mkdir()
    (src / "committed.py").write_text(OK_SOURCE)
    (src / "untouched.py").write_text(OK_SOURCE)
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_changed_python_files_tracks_edits_and_untracked(git_repo):
    src = git_repo / "src"
    assert changed_python_files([src], since="HEAD") == []

    (src / "committed.py").write_text(OK_SOURCE + "Y = 2\n")
    (src / "fresh.py").write_text(OK_SOURCE)
    (src / "notes.txt").write_text("not python\n")
    changed = changed_python_files([src], since="HEAD")
    assert sorted(p.name for p in changed) == ["committed.py", "fresh.py"]

    # Files outside the requested roots are filtered out.
    (git_repo / "elsewhere.py").write_text(OK_SOURCE)
    changed = changed_python_files([src], since="HEAD")
    assert sorted(p.name for p in changed) == ["committed.py", "fresh.py"]


def test_resolve_base_revision_falls_back_to_head(git_repo):
    # No origin/main here, so the documented fallback chain ends at a
    # resolvable local revision.
    assert resolve_base_revision(None) in ("main", "HEAD")
    with pytest.raises(GitError):
        resolve_base_revision("no-such-rev")


def test_hot_changed_cli_restricts_findings_to_changed_files(
        git_repo, capsys):
    # The whole program is still assembled (reachability needs it),
    # but only findings in changed files are reported — and a clean
    # working tree short-circuits.
    def hot_main(argv):
        return main(argv + ["--select", "hot"])

    assert hot_main(["src", "--changed", "--since", "HEAD",
                     "--no-cache"]) == 0
    assert "no changed files" in capsys.readouterr().out

    hot_bad = (
        "class Record:\n"
        "    def __init__(self, when):\n"
        "        self.when = when\n"
        "\n"
        "\n"
        "def on_event(sim, now):\n"
        "    sim.schedule(now, Record(now))\n")
    (git_repo / "src" / "hot_dirty.py").write_text(hot_bad)
    assert hot_main(["src", "--changed", "--since", "HEAD",
                     "--no-cache"]) == 1
    assert "unslotted-hot-class" in capsys.readouterr().out

    # The same finding vanishes when the file is already committed
    # (nothing changed), even though the program still contains it.
    _git(git_repo, "add", ".")
    _git(git_repo, "commit", "-q", "-m", "hot fixture")
    assert hot_main(["src", "--changed", "--since", "HEAD",
                     "--no-cache"]) == 0
    assert "no changed files" in capsys.readouterr().out


def test_changed_cli_paths(git_repo, capsys):
    assert main(["src", "--changed", "--since", "HEAD",
                 "--no-cache"]) == 0
    assert "no changed files" in capsys.readouterr().out

    (git_repo / "src" / "dirty.py").write_text(BAD_SOURCE)
    assert main(["src", "--changed", "--since", "HEAD",
                 "--no-cache"]) == 1
    assert "no-wallclock" in capsys.readouterr().out

    assert main(["src", "--changed", "--since", "no-such-rev",
                 "--no-cache"]) == 2
