"""The ledger: end-to-end and per-layer numbers for five whole experiments.

    PYTHONPATH=src python benchmarks/ledger/run.py [--seed N] [--repeats N]
                    [--workload NAME] [--smoke] [--selfcheck] [--out PATH]

prints every metric of ``BENCHMARK.json`` by name with its unit, runs the
correctness checks and writes ``benchmarks/ledger/out/ledger.json``
(``--out`` moves it).

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S
                                     --trace 0|1

is the form the benchmark driver calls: one workload, measured for about
``S`` seconds, one JSON object on the last line of stdout (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).

Every measurement is one fresh ``child.py`` process: ``PYTHONHASHSEED=0``,
every ``REPRO_*`` variable removed, default ``python`` kernel, one thread.
This file measures nothing itself and imports ``repro`` only to stamp the
record with ``bench.git_rev``; ``README.md`` says what each number means.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RECORD = HERE / "out" / "ledger.json"

#: Interference on a shared box only ever adds time, so the reported value
#: is the mean of the few best repeats; median and quartiles ride along.
BEST_OF = 3
#: Times are reported as on a machine that runs one ``child.calibrate()``
#: slice in this many seconds (about what this sandbox does when quiet).
CALIBRATION_S = 0.04
#: A driver run keeps spawning children until ``--seconds`` is spent, but
#: never stops before this many.
MIN_REPEATS = 3
#: The profiled child runs at this share of the workload's horizon;
#: children whose steady walls are compared run it all.
TRACE_SCALE = 0.5
RATIO_REPEATS = 3
CHILD_TIMEOUT_S = 150

#: Per-layer metrics built from call and event counts only: two runs of
#: one seed must agree on them to the last digit (``--selfcheck``).
EXACT_SUFFIXES = (
    ".calls_per_pkt_hop", "total.py_calls_per_pkt_hop",
    "sim.kernel.events_dispatched", "sched.held_share",
    "traffic.packets_injected", "traffic.resume_per_packet",
    "monitors.observe_per_pkt_hop", "admission.attempts",
    "admission.blocked_share", "sim.parallel.shard_events_over_serial",
    "total.gc_collections_per_mpkt_hop",
)

Options = Tuple[Tuple[str, str], ...]


def fail(message: str) -> NoReturn:
    print(f"ledger: {message}", file=sys.stderr)
    sys.exit(2)


def preflight() -> dict:
    """Refuse to start where the numbers would not mean what they say."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'repro'} is missing; run from "
             f"a full checkout of the repository")
    if importlib.util.find_spec("numpy") is None:
        fail("numpy is not installed; the heavy_* workloads need the soa "
             "session table (pip install numpy, or the [scale] extra)")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing; it names the metrics and bounds")
    return json.loads(spec_path.read_text())


def child_env(kernel: Optional[str]) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    if kernel:
        env["REPRO_KERNEL_BACKEND"] = kernel
    return env


def compiled_kernel_built() -> bool:
    return any((SRC / "repro" / "sim").glob("_ckernel*.so"))


def summarise(values: Sequence[float], better: str) -> dict:
    ordered = sorted(values, reverse=better == "higher")
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": statistics.fmean(ordered[:BEST_OF]),
            "median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: Sequence[float], share: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[round(share * (len(ordered) - 1))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Ledger:
    """Spawns children for one seed and scale; keeps samples and checks."""

    def __init__(self, spec: dict, seed: int, smoke: bool = False) -> None:
        self.spec = spec
        self.seed = seed
        #: Smoke: a tenth of every horizon, and the compared children run
        #: once, shortened like the traced ones (their ratios mean nothing).
        self.scale = 0.1 if smoke else 1.0
        self.ratio_repeats = 1 if smoke else RATIO_REPEATS
        self.ratio_scale = TRACE_SCALE if smoke else 1.0
        self.checks: List[dict] = []
        self.digests: Dict[str, str] = {}
        self._variants: Dict[Tuple[str, Options], List[dict]] = {}
        self._probes: Optional[dict] = None

    # ------------------------------------------------------------------
    # Children
    # ------------------------------------------------------------------
    def child(self, mode: str, workload: Optional[str] = None, *,
              scale: float = 1.0, kernel: Optional[str] = None,
              state: Optional[str] = None,
              discipline: Optional[str] = None,
              calibrate: bool = False) -> dict:
        """Run one child; its checks are counted whatever happens."""
        command = [sys.executable, str(HERE / "child.py"), "--mode", mode,
                   "--seed", str(self.seed),
                   "--scale", repr(self.scale * scale)]
        for flag, value in (("--workload", workload), ("--state", state),
                            ("--discipline", discipline)):
            if value:
                command += [flag, value]
        if calibrate:
            command.append("--calibrate")
        command += ["--t0", repr(time.perf_counter())]
        try:
            done = subprocess.run(
                command, env=child_env(kernel), cwd=ROOT, text=True,
                capture_output=True, timeout=CHILD_TIMEOUT_S)
            if done.returncode != 0:
                raise RuntimeError(
                    f"exit {done.returncode}: {done.stderr[-2000:]}")
            report = json.loads(done.stdout.splitlines()[-1])
        except (subprocess.TimeoutExpired, RuntimeError, IndexError,
                ValueError) as error:
            report = {"error": str(error),
                      "checks": [{"name": "child", "ok": False,
                                  "detail": "child process failed"}]}
        label = workload or mode
        if "error" in report:
            print(f"ledger: {label} child failed:\n{report['error']}",
                  file=sys.stderr)
        for check in report["checks"]:
            self.checks.append({"workload": label, **check})
        return report

    def same_digest(self, key: str, workload: str, report: dict,
                    what: str) -> None:
        """Every repeat of one configuration must see the same outputs."""
        if "digest" not in report:
            return
        first = self.digests.setdefault(key, report["digest"])
        self.checks.append({
            "workload": workload, "name": what,
            "ok": report["digest"] == first,
            "detail": f"digest {report['digest'][:16]} != {first[:16]}"})

    # ------------------------------------------------------------------
    # End to end
    # ------------------------------------------------------------------
    def sample(self, names: Sequence[str], repeats: Optional[int],
               seconds: Optional[float]) -> Dict[str, List[dict]]:
        """Plain children, round-robin over ``names`` so that a noisy
        minute lands on every workload once instead of on one of them ten
        times.  Stops after ``repeats`` rounds, or when the next round
        would overrun ``seconds``."""
        samples: Dict[str, List[dict]] = {name: [] for name in names}
        started = time.perf_counter()
        longest_round = 0.0
        rounds = 0
        while repeats is None or rounds < repeats:
            elapsed = time.perf_counter() - started
            if (seconds is not None and rounds >= MIN_REPEATS
                    and elapsed + longest_round > seconds):
                break
            for name in names:
                report = self.child("plain", name, calibrate=True)
                self.same_digest(f"{name}@1.0", name, report,
                                 "digest_repeats")
                if "error" not in report:
                    samples[name].append(report)
            rounds += 1
            longest_round = max(
                longest_round, time.perf_counter() - started - elapsed)
        return samples

    def end_to_end(self, samples: List[dict]) -> Dict[str, dict]:
        """Reduce one workload's children to the declared metrics.

        Times are scaled by how fast the machine ran ``child.calibrate``
        between the same children (its fastest quarter of slices against
        the nominal CALIBRATION_S), which takes out the minute-scale speed
        swings of a shared box; counts and memory are reported as read.
        """
        slices = sorted(t for s in samples for t in s["calibration_s"])
        speed = CALIBRATION_S / statistics.fmean(slices[:len(slices) // 4])
        phases = [s["phases"] for s in samples]
        per_child = {
            "setup_s": [(p["import_s"] + p["construct_s"]) * speed
                        for p in phases],
            "steady_wall_s": [p["steady_s"] * speed for p in phases],
            "pkt_hops_per_s": [s["pkt_hops"] / s["phases"]["steady_s"]
                               / speed for s in samples],
            "total_wall_s": [sum(p.values()) * speed for p in phases],
            "peak_rss_mb": [s["rss_peak_mb"] for s in samples],
            "events_per_pkt_hop": [s["events"] / s["pkt_hops"]
                                   for s in samples],
        }
        metrics = {}
        for declared in self.spec["end_to_end"]:
            name = declared["name"]
            stat = summarise(per_child[name], declared["better"])
            spread = ratio(stat["q3"] - stat["q1"], stat["median"])
            stat["unit"] = declared["unit"]
            stat["unresolved"] = spread > declared["bound"]
            metrics[name] = stat
        return metrics

    # ------------------------------------------------------------------
    # Per layer
    # ------------------------------------------------------------------
    def best_steady(self, workload: str,
                    variants: Dict[str, dict]) -> Dict[str, float]:
        """Fastest steady wall of each variant, repeats interleaved.

        Samples are kept per (workload, options), so a variant another
        metric already ran (``heavy_1e4`` under plain Leave-in-Time) is
        not run again.
        """
        pools = {label: self._variants.setdefault(
            (workload, tuple(sorted(options.items()))), [])
            for label, options in variants.items()}
        for _ in range(self.ratio_repeats):
            for label, options in variants.items():
                if len(pools[label]) < self.ratio_repeats:
                    report = self.child("plain", workload,
                                        scale=self.ratio_scale, **options)
                    if "discipline" not in options:
                        self.same_digest(
                            f"{workload}@{self.ratio_scale}", workload,
                            report, "digest_backends")
                    if "error" not in report:
                        pools[label].append(report)
        return {label: min((s["phases"]["steady_s"] for s in pool),
                           default=0.0)
                for label, pool in pools.items()}

    def layers_alone(self) -> Tuple[dict, Dict[str, float]]:
        """What does not depend on the traced workload, measured once: the
        probes child, and ``heavy_1e4`` under Leave-in-Time and FCFS."""
        if self._probes is None:
            self._probes = self.child("probes")
        return self._probes, self.best_steady(
            "heavy_1e4", {"lit": {}, "fcfs": {"discipline": "fcfs"}})

    def per_layer(self, workload: str) -> Dict[str, float]:
        profile = self.child("profile", workload, scale=TRACE_SCALE)
        # The span-recording child doubles as the first plain-python sample
        # of the comparison below: its wrappers cost well under a
        # millisecond of steady state.
        spans = self.child("spans", workload, scale=self.ratio_scale)
        if "error" in profile or "error" in spans:
            return {}
        self.same_digest(f"{workload}@{TRACE_SCALE}", workload, profile,
                         "digest_traced")
        self.same_digest(f"{workload}@{self.ratio_scale}", workload, spans,
                         "digest_traced")
        base = self._variants.setdefault((workload, ()), [])
        if not base:
            base.append(spans)
        other_state = "soa" if spans["state_backend"] == "objects" \
            else "objects"
        variants = {"python": {}, "batch": {"kernel": "batch"},
                    other_state: {"state": other_state}}
        if compiled_kernel_built():
            variants["compiled"] = {"kernel": "compiled"}
        steady = self.best_steady(workload, variants)
        steady[spans["state_backend"]] = steady["python"]
        probes, disciplines = self.layers_alone()

        traced = profile["profile"]
        hops = profile["pkt_hops"]
        layer_total = sum(row["self_s"]
                          for row in traced["layers"].values())
        traced_steady = profile["phases"]["steady_s"]
        self.checks.append({
            "workload": workload, "name": "profile_accounts",
            "ok": abs(layer_total - traced_steady) <= 0.02 * traced_steady,
            "detail": f"layers sum to {layer_total:.4f} s of a "
                      f"{traced_steady:.4f} s traced steady wall"})

        metrics: Dict[str, float] = {}
        for layer, row in traced["layers"].items():
            metrics[f"{layer}.self_s"] = row["self_s"]
            metrics[f"{layer}.self_share"] = ratio(row["self_s"],
                                                   layer_total)
            metrics[f"{layer}.calls_per_pkt_hop"] = row["calls"] / hops
        span = spans["spans"]
        added = span["add_session_calls"]
        metrics.update({
            "total.py_calls_per_pkt_hop": traced["py_calls"] / hops,
            "total.gc_collections_per_mpkt_hop":
                spans["gc_collections"] / spans["pkt_hops"] * 1e6,
            "total.trace_overhead_ratio": ratio(
                traced_steady / hops,
                steady["python"] / base[0]["pkt_hops"]),
            "sim.kernel.events_dispatched": profile["events"],
            "sim.kernel.spin_ev_per_s": probes.get("spin_ev_per_s", 0.0),
            "sim.kernel.batch_over_python":
                ratio(steady["python"], steady["batch"]),
            "net.session_table.soa_over_objects":
                ratio(steady["objects"], steady["soa"]),
            "net.session_table.rss_per_session_kb": ratio(
                (spans["rss_peak_mb"] - spans["rss_import_mb"]) * 1024.0,
                added),
            "net.session_table.setup_us_per_session":
                ratio(span["add_session_s"] * 1e6, added),
            "sched.held_share": ratio(traced["lit_release"],
                                      traced["lit_on_arrival"]),
            "sched.lit_over_fcfs": ratio(disciplines["lit"],
                                         disciplines["fcfs"]),
            "traffic.packets_injected": traced["inject"],
            "traffic.resume_per_packet": ratio(traced["process_resume"],
                                               traced["inject"]),
            "monitors.observe_per_pkt_hop": traced["tally_observe"] / hops,
            "admission.attempts": len(span["admit_us"]),
            "admission.blocked_share": ratio(span["admit_blocked"],
                                             len(span["admit_us"])),
            "admission.admit_us_p50": percentile(span["admit_us"], 0.50),
            "admission.admit_us_p99": percentile(span["admit_us"], 0.99),
            "admission.release_us_p50":
                percentile(span["release_us"], 0.50),
            "experiments.import_s": statistics.median(
                s["phases"]["import_s"] for s in base),
            "experiments.construct_s": statistics.median(
                s["phases"]["construct_s"] for s in base),
            "experiments.harvest_s": statistics.median(
                s["phases"]["harvest_s"] for s in base),
            "sim.parallel.inline2_over_serial":
                probes.get("inline2_over_serial", 0.0),
            "sim.parallel.shard_events_over_serial":
                probes.get("shard_events_over_serial", 0.0),
        })
        if "compiled" in steady:
            metrics["sim.kernel.compiled_over_python"] = ratio(
                steady["python"], steady["compiled"])
        return metrics

    def verdict(self) -> Tuple[int, int]:
        failed = sum(1 for check in self.checks if not check["ok"])
        return len(self.checks), failed


# ----------------------------------------------------------------------
# Driver form: one workload, one JSON line
# ----------------------------------------------------------------------
def driver_run(spec: dict, args) -> int:
    ledger = Ledger(spec, args.seed)
    if args.trace:
        values = ledger.per_layer(args.workload)
        declared = spec["per_layer"]
    else:
        samples = ledger.sample([args.workload], None,
                                args.seconds)[args.workload]
        values = ({name: stat["value"] for name, stat
                   in ledger.end_to_end(samples).items()}
                  if samples else {})
        declared = spec["end_to_end"]
    attempted, failed = ledger.verdict()
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        fail(f"no value for {missing}; see the child errors above")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {d["name"]: {"value": values[d["name"]],
                                "unit": d["unit"]} for d in declared}}))
    return 0


# ----------------------------------------------------------------------
# Ledger form: every workload, a table and a record
# ----------------------------------------------------------------------
def environment() -> dict:
    import numpy
    sys.path.insert(0, str(SRC))
    from repro.analysis.bench import git_rev
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_rev": git_rev(),
            "compiled_kernel_built": compiled_kernel_built()}


def full_set(spec: dict, args, names: Sequence[str]) -> dict:
    """One complete set: end-to-end repeats, then the traced runs."""
    ledger = Ledger(spec, args.seed, args.smoke)
    samples = ledger.sample(names, args.repeats, None)
    # A smoke run's times mean nothing, so its traced runs go two abreast
    # (one per core) to finish inside half a minute; what they share is
    # measured first.  A measuring set runs one child at a time.
    ledger.layers_alone()
    with ThreadPoolExecutor(2 if args.smoke else 1) as pool:
        per_layer = list(pool.map(ledger.per_layer, names))
    record = {"workloads": {}}
    for name, layer_metrics in zip(names, per_layer):
        record["workloads"][name] = {
            "end_to_end": (ledger.end_to_end(samples[name])
                           if samples[name] else {}),
            "per_layer": layer_metrics,
            "digest": ledger.digests.get(f"{name}@1.0", ""),
        }
    attempted, failed = ledger.verdict()
    record["checks"] = {
        "attempted": attempted, "failed": failed,
        "failed_share": ratio(failed, attempted),
        "failures": [check for check in ledger.checks if not check["ok"]]}
    return record


def print_set(spec: dict, record: dict) -> None:
    units = {d["name"]: d["unit"] for d in spec["per_layer"]}
    for name, entry in record["workloads"].items():
        print(f"\n== {name}   digest {entry['digest'][:16]}")
        for metric, stat in entry["end_to_end"].items():
            flag = "  unresolved" if stat["unresolved"] else ""
            print(f"  {metric:<40}{stat['value']:>14.6g} {stat['unit']:<6}"
                  f" median {stat['median']:.6g}"
                  f" [{stat['q1']:.6g}, {stat['q3']:.6g}]"
                  f" n={stat['n']}{flag}")
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:<40}{value:>14.6g} "
                  f"{units.get(metric, 'ratio')}")
    checks = record["checks"]
    print(f"\nchecks: {checks['failed']} failed of {checks['attempted']}"
          f" (failed_share {checks['failed_share']:.4g})")
    for check in checks["failures"]:
        print(f"  FAILED {check['workload']}/{check['name']}: "
              f"{check['detail']}")


def compare_sets(spec: dict, first: dict, second: dict) -> List[str]:
    """``--selfcheck``: two sets of one commit must agree within bounds."""
    problems = []
    for record in (first, second):
        if record["checks"]["failed"]:
            problems.append(f"{record['checks']['failed']} checks failed")
    for name, one in first["workloads"].items():
        two = second["workloads"][name]
        if one["digest"] != two["digest"]:
            problems.append(f"{name}: digest differs between the sets")
        for declared in spec["end_to_end"]:
            metric = declared["name"]
            a = one["end_to_end"][metric]["value"]
            b = two["end_to_end"][metric]["value"]
            if abs(b - a) > declared["bound"] * abs(a):
                problems.append(
                    f"{name}: {metric} {a:.6g} vs {b:.6g} is outside "
                    f"{declared['bound']:.0%}")
        for metric, a in one["per_layer"].items():
            if metric.endswith(EXACT_SUFFIXES) \
                    and a != two["per_layer"][metric]:
                problems.append(
                    f"{name}: exact count {metric} {a!r} vs "
                    f"{two['per_layer'][metric]!r}")
    return problems


def ledger_run(spec: dict, args) -> int:
    known = [w["name"] for w in spec["workloads"]]
    names = [args.workload] if args.workload else known
    record = {"environment": environment(), "seed": args.seed,
              "repeats": args.repeats, "smoke": args.smoke}
    print("environment: " + ", ".join(
        f"{key} {value}" for key, value in record["environment"].items()))
    record.update(full_set(spec, args, names))
    print_set(spec, record)
    status = 1 if record["checks"]["failed"] else 0
    if args.selfcheck:
        second = full_set(spec, args, names)
        print("\n==== second set")
        print_set(spec, second)
        problems = compare_sets(spec, record, second)
        record["selfcheck"] = {"second": second, "problems": problems}
        print("\nselfcheck: " + ("ok" if not problems else "FAILED"))
        for problem in problems:
            print(f"  {problem}")
        status = 1 if problems else status
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nrecord written to {args.out}")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = preflight()
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=known)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=10,
                        help="end-to-end repeats per workload (default 10)")
    parser.add_argument("--smoke", action="store_true",
                        help="horizons / 10, 2 repeats: checks the plumbing")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two consecutive sets must agree within bounds")
    parser.add_argument("--out", type=Path, default=RECORD,
                        help=f"where the record goes (default {RECORD})")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="driver form: wall seconds to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 end-to-end, 1 per-layer")
    args = parser.parse_args(argv)
    if args.smoke:
        args.repeats = 2
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return driver_run(spec, args)
    return ledger_run(spec, args)


if __name__ == "__main__":
    sys.exit(main())
