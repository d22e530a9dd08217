"""``repro-analyze`` — the one front door to the analyzer suite.

One process, one registry, one cache, four rule packs:

* **lint** — per-file DES-invariant rules (cached findings);
* **verify** — whole-program semantic rules;
* **det** — the determinism / parallel-safety rule;
* **hot** — hot-path performance rules.

The three whole-program packs check a single assembled
:class:`~repro.analysis.verify.model.Program` — summaries are
extracted once per file and reused for verify's, det's, and hot's
rule passes, so a warm full-tree run costs one cache read and no
extraction.  Exit status: 0 clean, 1 findings anywhere, 2 usage
errors or unanalyzable files.

``--select`` filters at two grains: ``--select det`` runs one pack,
``--select hot:unslotted-hot-class`` one rule.  Output is ``text``
(per-pack sections), ``json`` (one list per pack), or ``sarif`` (one
SARIF 2.1.0 log with one run per pack — what GitHub code scanning
ingests).

Two dynamic modes share the entry point:

* ``--perturb`` — the schedule-perturbation differ
  (:mod:`repro.analysis.det.perturb`): rerun ``--scenario`` under
  shuffled tie-break, shuffled session registration, ``workers=1`` vs
  ``--workers N`` and shuffled partition assignments (``--modes``
  picks a subset), and diff observables + traces; exit 1 on a
  divergence.
* ``--profile SCENARIO`` — run a shortened workload under cProfile
  and print the ``hot`` findings hottest-first
  (:mod:`repro.analysis.hot.profile`).  ``--budget PCT`` turns the
  ranking into a gate: exit 1 only when a finding sits in a function
  that consumed at least PCT percent of the profiled run.

Both take ``--horizon`` (simulated seconds).  ``--perturb``'s verdict
is its exit code, ``--profile``'s its printed ranking; neither writes a
file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.hot.core import build_hot_program
from repro.analysis.hot.model import HotProgram
from repro.analysis.lint.cache import DEFAULT_CACHE_DIR, AnalysisCache
from repro.analysis.lint.changed import GitError, changed_python_files
from repro.analysis.lint.core import (
    PACKS,
    LintError,
    Violation,
    iter_python_files,
    lint_paths,
    registered_rules,
    run_rules,
)
from repro.analysis.lint.reporters import render_text
from repro.analysis.verify.core import build_program

__all__ = ["main", "build_parser", "run_suite", "select_rules"]


def _pack(key: str) -> str:
    return key.partition(":")[0]


def select_rules(items: Optional[Sequence[str]]) -> List[str]:
    """Registry keys named by ``--select`` items (``PACK`` or
    ``PACK:RULE``); every rule when nothing is selected."""
    registry = registered_rules()
    if not items:
        return list(registry)
    keys: List[str] = []
    for item in items:
        if item in PACKS:
            keys.extend(key for key in registry if _pack(key) == item)
        elif item in registry:
            keys.append(item)
        else:
            raise ValueError(
                f"unknown pack or rule {item!r} (packs: "
                f"{', '.join(PACKS)}; rules: see --list-rules)")
    return list(dict.fromkeys(keys))


def _analyze(paths: Sequence[Path], keys: Sequence[str],
           cache: AnalysisCache
           ) -> Tuple[Dict[str, List[Violation]], Optional[HotProgram]]:
    """Findings per selected pack, plus the HotProgram the hot pack
    checked (``--profile`` ranks against it)."""
    registry = registered_rules()
    rules: Dict[str, List[Any]] = {}
    for key in keys:
        rules.setdefault(_pack(key), []).append(registry[key]())

    results: Dict[str, List[Violation]] = {}
    hot: Optional[HotProgram] = None
    if "lint" in rules:
        # Cached findings are the full pack's: a subset run must
        # neither read them (stale superset) nor overwrite them.
        full = all(key in keys for key in registry
                   if _pack(key) == "lint")
        results["lint"] = lint_paths(
            paths, rules["lint"], cache if full else AnalysisCache(None))
    if rules.keys() - {"lint"}:
        program = build_program(paths, cache)
        if "hot" in rules:
            hot = build_hot_program(paths, program, cache)
        for pack in PACKS[1:]:
            if pack in rules:
                results[pack] = run_rules(
                    rules[pack], hot if pack == "hot" else program,
                    lambda violation: program.is_suppressed(
                        violation.path, violation.line, violation.rule))
    return results, hot


def run_suite(paths: Sequence[Path],
              keys: Optional[Sequence[str]] = None,
              cache_dir: Optional[Path] = None
              ) -> Dict[str, List[Violation]]:
    """``{pack: findings}`` over ``paths`` of the rules named by
    ``keys`` (``--select`` items; default: every rule);
    ``cache_dir=None`` caches nothing.

    Raises :class:`LintError` when any file cannot be analyzed.
    """
    cache = AnalysisCache(cache_dir)
    try:
        return _analyze(paths, select_rules(keys), cache)[0]
    finally:
        cache.save()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=("The Leave-in-Time analyzer suite: the lint, "
                     "verify, det and hot rule packs in one process "
                     "over one cache, plus the schedule-perturbation "
                     "differ (--perturb) and the profile-guided "
                     "hot-path ranking (--profile)."))
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)")
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)")
    parser.add_argument(
        "--select", action="append", metavar="PACK[:RULE]",
        default=None,
        help="run only this pack, or only this rule of it "
             "(repeatable; e.g. --select det --select "
             "hot:unslotted-hot-class)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every pack's rules and exit")
    parser.add_argument(
        "--changed", action="store_true",
        help="report only findings in files differing from origin/main "
             "(or --since) plus untracked files; the whole program is "
             "still assembled so cross-module facts stay exact")
    parser.add_argument(
        "--since", metavar="REV", default=None,
        help="base revision for --changed (default: origin/main, "
             "falling back to main, then HEAD)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="re-extract every file instead of using the cache")
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=str(DEFAULT_CACHE_DIR),
        help=f"cache directory (default: {DEFAULT_CACHE_DIR})")
    dynamic = parser.add_argument_group("dynamic modes")
    dynamic.add_argument(
        "--perturb", action="store_true",
        help="run the schedule-perturbation differ instead of the "
             "static rules")
    dynamic.add_argument(
        "--scenario", default="fig07",
        help="scenario to perturb (default: fig07)")
    dynamic.add_argument(
        "--modes", default=None, metavar="M1,M2",
        help="comma-separated subset of tiebreak,registration,workers,"
             "partitions (default: all)")
    dynamic.add_argument(
        "--rounds", type=int, default=2, metavar="N",
        help="perturbation seeds per single-run mode (default: 2)")
    dynamic.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="pool width of the workers mode (default: 4)")
    dynamic.add_argument(
        "--profile", metavar="SCENARIO", default=None,
        help="run this scenario under cProfile and rank the hot "
             "findings by measured hotness (see --list-scenarios)")
    dynamic.add_argument(
        "--budget", type=float, default=None, metavar="PCT",
        help="exit 1 only when a finding's enclosing function consumed "
             "at least PCT%% of the profiled run (requires --profile)")
    dynamic.add_argument(
        "--list-scenarios", action="store_true",
        help="print the profileable scenarios and exit")
    dynamic.add_argument(
        "--horizon", type=float, default=None, metavar="SECONDS",
        help="simulated seconds per --perturb run (default: 0.25) or "
             "for the --profile run (default: per-scenario)")
    return parser


def _run_perturb(options: argparse.Namespace,
                 parser: argparse.ArgumentParser) -> int:
    # Imported here: the differ pulls the experiment stack, which the
    # static path (CI's hot path) must not pay for.
    from repro.analysis.det.perturb import (
        DEFAULT_MODES,
        perturb_scenario,
        scenarios,
    )

    registry = scenarios()
    if options.scenario not in registry:
        parser.error(f"unknown scenario {options.scenario!r} "
                     f"(available: {', '.join(sorted(registry))})")
    modes: Sequence[str] = DEFAULT_MODES
    if options.modes:
        modes = tuple(part.strip() for part in options.modes.split(",")
                      if part.strip())
        unknown = [mode for mode in modes if mode not in DEFAULT_MODES]
        if unknown:
            parser.error(f"unknown perturbation mode(s): "
                         f"{', '.join(unknown)} "
                         f"(available: {', '.join(DEFAULT_MODES)})")
    horizon = 0.25 if options.horizon is None else options.horizon
    scenario = registry[options.scenario]()
    report = perturb_scenario(scenario, modes, horizon=horizon,
                              workers=options.workers,
                              rounds=options.rounds)
    print(report.render())
    return 0 if report.deterministic else 1


def _run_profile(options: argparse.Namespace,
                 parser: argparse.ArgumentParser,
                 paths: List[Path], keys: List[str],
                 cache: AnalysisCache) -> int:
    # Imported here: the profiler pulls the experiment stack, which
    # the static path (CI's hot path) must not pay for.
    from repro.analysis.hot.profile import (
        profile_scenario,
        rank_findings,
        scenarios,
    )

    if options.profile not in scenarios():
        parser.error(f"unknown scenario {options.profile!r} "
                     f"(available: {', '.join(sorted(scenarios()))})")
    hot_keys = [key for key in keys if _pack(key) == "hot"]
    if not hot_keys:
        parser.error("--profile ranks the hot pack's findings; "
                     "--select excludes every hot rule")
    results, hot = _analyze(paths, hot_keys, cache)

    report = profile_scenario(options.profile, horizon=options.horizon)
    ranked = rank_findings(results["hot"], hot, report.index)
    print(f"hot-path findings ranked by {report.scenario!r} profile "
          f"({report.wall_time_s:.3f}s profiled, "
          f"{report.simulated_s:g} simulated seconds)")
    for violation, fraction in ranked:
        share = "  cold" if fraction is None \
            else f"{100.0 * fraction:5.1f}%"
        print(f"{share}  {violation.render()}")
    if not ranked:
        print("clean (no static findings to rank)")

    if options.budget is None:
        return 0
    return 1 if any(fraction is not None
                    and 100.0 * fraction >= options.budget
                    for _violation, fraction in ranked) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    registry = registered_rules()

    if options.list_rules:
        for key, rule in registry.items():
            print(f"{key}: {rule.description}")
        return 0
    if options.list_scenarios:
        from repro.analysis.hot.profile import scenarios
        for name, scenario in sorted(scenarios().items()):
            print(f"{name}: {scenario.description} "
                  f"(default horizon {scenario.default_horizon:g}s)")
        return 0
    if options.budget is not None and options.profile is None:
        parser.error("--budget requires --profile")
    if options.perturb:
        return _run_perturb(options, parser)

    try:
        keys = select_rules(options.select)
    except ValueError as exc:
        parser.error(str(exc))
    packs = [pack for pack in PACKS
             if any(_pack(key) == pack for key in keys)]

    paths: List[Path] = []
    for raw in options.paths:
        path = Path(raw)
        if not path.exists():
            parser.error(f"no such file or directory: {raw}")
        paths.append(path)

    cache = AnalysisCache(
        None if options.no_cache else Path(options.cache_dir))
    try:
        if options.profile is not None:
            return _run_profile(options, parser, paths, keys, cache)

        changed: Optional[List[Path]] = None
        if options.changed:
            changed = changed_python_files(paths, since=options.since)
        if changed == []:
            if options.format == "text":
                print("clean (no changed files)")
                return 0
            # Machine-readable formats still get a (valid, empty)
            # document.
            results: Dict[str, List[Violation]] = {
                pack: [] for pack in packs}
        else:
            results = _analyze(paths, keys, cache)[0]
    except (LintError, GitError) as exc:
        print(f"repro-analyze: error: {exc}", file=sys.stderr)
        return 2
    finally:
        cache.save()

    if changed:
        changed_set = {str(path.resolve()) for path in changed}
        results = {
            pack: [violation for violation in violations
                   if str(Path(violation.path).resolve())
                   in changed_set]
            for pack, violations in results.items()
        }

    files_checked = sum(1 for _ in iter_python_files(paths))
    if options.format == "sarif":
        from repro.analysis.sarif import render_sarif
        print(render_sarif([
            (f"repro-analyze/{pack}",
             {key.partition(":")[2]: rule.description
              for key, rule in registry.items() if _pack(key) == pack},
             results[pack])
            for pack in packs]))
    elif options.format == "json":
        print(json.dumps(
            {"files_checked": files_checked,
             "findings": {pack: [asdict(violation)
                                 for violation in results[pack]]
                          for pack in packs}},
            indent=2, sort_keys=True))
    else:
        for pack in packs:
            print(f"== {pack} ==")
            print(render_text(results[pack],
                              files_checked=files_checked))
    return 1 if any(results.values()) else 0
