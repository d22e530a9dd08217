"""``repro-analyze`` — the one front door to the analyzer suite.

One stateless pass — parse, assemble, check, print — over one
registry and three rule packs:

* **lint** — per-file DES-invariant rules;
* **verify** — whole-program semantic rules;
* **det** — the determinism / parallel-safety rule.

Each file is read and parsed once (:func:`~repro.analysis.lint.core.
read_files`): the lint rules check it as it is, and the two
whole-program packs check a single
:class:`~repro.analysis.verify.model.Program` assembled from one
summary per file.  A run reads source and writes stdout, nothing else.
Exit status: 0 clean, 1 findings anywhere, 2 usage errors or
unanalyzable files.

``--select`` filters at two grains: ``--select det`` runs one pack,
``--select verify:dimension-mismatch`` one rule.  Output is ``text``
(per-pack sections), ``json`` (one list per pack), or ``sarif`` (one
SARIF 2.1.0 log with one run per pack — what GitHub code scanning
ingests).

One dynamic mode shares the entry point: ``--perturb``, the
schedule-perturbation differ (:mod:`repro.analysis.det.perturb`) —
rerun a shortened Figure-7 cell for ``--horizon`` simulated seconds
under shuffled tie-break, shuffled session registration and
``workers=1`` vs ``--workers N`` (``--modes`` picks a subset), and diff
observables + traces.  Its verdict is its exit code (1 on a
divergence).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.lint.core import (
    PACKS,
    LintError,
    Violation,
    iter_python_files,
    read_files,
    registered_rules,
    run_rules,
)
from repro.analysis.lint.reporters import render_text
from repro.analysis.verify.model import Program
from repro.argtypes import positive_int, positive_seconds

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


def run_suite(paths: Sequence[Path],
              keys: Optional[Sequence[str]] = None
              ) -> Dict[str, List[Violation]]:
    """``{pack: findings}`` over ``paths`` of the rules named by
    ``keys`` (``--select`` items; default: every rule).

    Raises :class:`LintError` when any file cannot be analyzed.
    """
    registry = registered_rules()
    rules: Dict[str, List[Any]] = {}
    for key in select_rules(keys):
        rules.setdefault(_pack(key), []).append(registry[key]())

    files = read_files(paths)
    results: Dict[str, List[Violation]] = {}
    if "lint" in rules:
        results["lint"] = sorted(
            violation for context in files
            for violation in run_rules(rules["lint"], context))
    if rules.keys() - {"lint"}:
        program = Program(files)
        for pack in PACKS[1:]:
            if pack in rules:
                results[pack] = run_rules(rules[pack], program)
    return results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=("The Leave-in-Time analyzer suite: the lint, "
                     "verify and det rule packs in one stateless "
                     "pass, plus the schedule-perturbation differ "
                     "(--perturb)."))
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
             "verify:dimension-mismatch)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print every pack's rules and exit")
    dynamic = parser.add_argument_group("dynamic mode")
    dynamic.add_argument(
        "--perturb", action="store_true",
        help="run the schedule-perturbation differ instead of the "
             "static rules")
    dynamic.add_argument(
        "--modes", default=None, metavar="M1,M2",
        help="comma-separated subset of tiebreak,registration,workers "
             "(default: all)")
    dynamic.add_argument(
        "--rounds", type=positive_int, default=2, metavar="N",
        help="perturbation seeds per single-run mode (default: 2)")
    dynamic.add_argument(
        "--workers", type=positive_int, default=4, metavar="N",
        help="pool width of the workers mode (default: 4)")
    dynamic.add_argument(
        "--horizon", type=positive_seconds, default=0.25,
        metavar="SECONDS",
        help="simulated seconds per --perturb run (default: 0.25)")
    return parser


def _run_perturb(options: argparse.Namespace,
                 parser: argparse.ArgumentParser) -> int:
    # Imported here: the differ pulls the experiment stack, which the
    # static path (CI's hot path) must not pay for.
    from repro.analysis.det.perturb import (
        DEFAULT_MODES,
        Fig07Scenario,
        perturb_scenario,
    )

    modes: Sequence[str] = DEFAULT_MODES
    if options.modes is not None:
        modes = tuple(part.strip() for part in options.modes.split(",")
                      if part.strip())
        if not modes:
            parser.error(f"--modes: no perturbation mode named "
                         f"(available: {', '.join(DEFAULT_MODES)})")
        unknown = [mode for mode in modes if mode not in DEFAULT_MODES]
        if unknown:
            parser.error(f"unknown perturbation mode(s): "
                         f"{', '.join(unknown)} "
                         f"(available: {', '.join(DEFAULT_MODES)})")
    report = perturb_scenario(Fig07Scenario(), modes,
                              horizon=options.horizon,
                              workers=options.workers,
                              rounds=options.rounds)
    print(report.render())
    return 0 if report.deterministic else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    registry = registered_rules()

    if options.list_rules:
        for key, rule in registry.items():
            print(f"{key}: {rule.description}")
        return 0
    if options.perturb:
        return _run_perturb(options, parser)

    try:
        keys = select_rules(options.select)
    except ValueError as exc:
        parser.error(str(exc))

    paths: List[Path] = []
    for raw in options.paths:
        path = Path(raw)
        if not path.exists():
            parser.error(f"no such file or directory: {raw}")
        paths.append(path)

    files = list(iter_python_files(paths))
    try:
        results = run_suite(files, keys)
    except LintError as exc:
        print(f"repro-analyze: error: {exc}", file=sys.stderr)
        return 2

    if options.format == "sarif":
        from repro.analysis.sarif import render_sarif
        print(render_sarif([
            (f"repro-analyze/{pack}",
             {key.partition(":")[2]: rule.description
              for key, rule in registry.items() if _pack(key) == pack},
             found)
            for pack, found in results.items()]))
    elif options.format == "json":
        print(json.dumps(
            {"files_checked": len(files),
             "findings": {pack: [asdict(violation) for violation in found]
                          for pack, found in results.items()}},
            indent=2, sort_keys=True))
    else:
        for pack, found in results.items():
            print(f"== {pack} ==")
            print(render_text(found, files_checked=len(files)))
    return 1 if any(results.values()) else 0
