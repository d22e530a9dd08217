"""One measurement in one fresh process: run a workload, report as JSON.

The parent (``run.py``) starts this file with a clean environment and
reads the last line of stdout.  Nothing under ``src/`` knows it is being
measured: phase boundaries come from a shim this file puts around
``Network.run``, which also keeps the ``Network`` it saw so counters,
bounds and digests are read from the live object after the entry point
returns.

Modes
-----
``plain``    timing shim only (every end-to-end number comes from here)
``spans``    plus per-call spans around ``AdmissionController.admit`` /
             ``release`` and ``Network.add_session``, and ``gc`` counts
``profile``  plus ``cProfile`` over exactly the ``Network.run`` interval
``probes``   no workload: the layer-alone probes (kernel spin, inline
             2-shard run against serial)
"""

from __future__ import annotations

import argparse
import json
import sys
import time

_T_START = time.perf_counter()

import cProfile  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import pstats  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.admission.controller import AdmissionController  # noqa: E402
from repro.analysis.bench import peak_rss_bytes  # noqa: E402
from repro.errors import AdmissionError  # noqa: E402
from repro.net.network import Network  # noqa: E402

_T_IMPORTED = time.perf_counter()


def calibrate(rounds: int = 60_000) -> float:
    """Wall seconds of a fixed piece of interpreter work (heap, dict, float).

    It is harness code, so it costs the same whatever the program under
    ``src/`` does; run next to a measurement it says how fast the machine
    was at that moment.
    """
    heap, table, now = [], {}, 0.0
    start = time.perf_counter()
    for index in range(rounds):
        heapq.heappush(heap, (now + (index * 7919 % 1013) * 1e-3, index))
        if index & 1:
            now = heapq.heappop(heap)[0]
        table[index & 4095] = now
    return time.perf_counter() - start


def rss_mb() -> float:
    """High-water resident set of this process."""
    return peak_rss_bytes() / 2 ** 20


class RunShim:
    """Wraps ``Network.run``: times it, keeps the network, may profile it."""

    def __init__(self, profile: bool) -> None:
        self.network = None
        self.entered = self.left = 0.0
        self.gc_collections = 0
        self.profiler = cProfile.Profile() if profile else None
        inner = Network.run
        shim = self

        def run(network, duration):
            if shim.network is not None:
                raise RuntimeError("workload entered Network.run twice")
            shim.network = network
            collections = _gc_collections()
            shim.entered = time.perf_counter()
            if shim.profiler is not None:
                shim.profiler.enable()
            try:
                return inner(network, duration)
            finally:
                if shim.profiler is not None:
                    shim.profiler.disable()
                shim.left = time.perf_counter()
                shim.gc_collections = _gc_collections() - collections

        Network.run = run


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


class CallSpans:
    """Times every call of one method from outside; keeps the durations."""

    def __init__(self, owner: type, name: str) -> None:
        self.seconds = []
        self.raised = 0
        inner = getattr(owner, name)
        spans = self

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            except AdmissionError:
                spans.raised += 1
                raise
            finally:
                spans.seconds.append(time.perf_counter() - start)

        setattr(owner, name, timed)


def force_state_backend(backend: str) -> None:
    """Build every ``Network`` on ``backend`` whatever the entry point asks.

    The heavy-traffic cell pairs ``soa`` with its aggregate source; this is
    how the *identical* construction is run on ``objects`` state.
    """
    inner = Network.__init__

    def init(network, **kwargs):
        kwargs["state_backend"] = backend
        inner(network, **kwargs)

    Network.__init__ = init


def measure(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    horizon = workload.horizon * args.scale
    shim = RunShim(profile=args.mode == "profile")
    if args.state:
        force_state_backend(args.state)
    spans = {}
    if args.mode == "spans":
        spans = {"admit": CallSpans(AdmissionController, "admit"),
                 "release": CallSpans(AdmissionController, "release"),
                 "add_session": CallSpans(Network, "add_session")}
    report = {"rss_import_mb": rss_mb()}
    calibration = [calibrate(), calibrate()] if args.calibrate else []

    started = time.perf_counter()
    try:
        result = workload.run(horizon, args.seed, args.discipline)
        if shim.network is None:
            raise RuntimeError("workload never entered Network.run")
    except Exception:
        report["error"] = traceback.format_exc()
        report["checks"] = [{"name": name, "ok": False,
                             "detail": "workload raised"}
                            for name in workload.checks]
        return report
    returned = time.perf_counter()
    report["rss_peak_mb"] = rss_mb()
    if args.calibrate:
        calibration += [calibrate(), calibrate()]
    report["calibration_s"] = calibration

    network = shim.network
    origin = args.t0 if args.t0 is not None else _T_START
    # The calibration slices sit between import and construction and after
    # harvest; they belong to no phase.
    report["phases"] = {
        "import_s": _T_IMPORTED - origin,
        "construct_s": shim.entered - started,
        "steady_s": shim.left - shim.entered,
        "harvest_s": returned - shim.left,
    }
    report["pkt_hops"] = sum(node.packets_served
                             for node in network.nodes.values())
    report["events"] = network.sim.events_dispatched
    report["gc_collections"] = shim.gc_collections
    report["state_backend"] = network.state_backend
    outcome = workloads.Outcome(workload, network, result, horizon)
    report["digest"] = workload.digest(outcome)
    report["checks"] = (workloads.run_checks(outcome)
                        if args.discipline == workloads.LIT else [])

    if spans:
        admit, release, added = (spans[key] for key in
                                 ("admit", "release", "add_session"))
        report["spans"] = {
            "admit_us": [s * 1e6 for s in admit.seconds],
            "admit_blocked": admit.raised,
            "release_us": [s * 1e6 for s in release.seconds],
            "add_session_calls": len(added.seconds),
            "add_session_s": sum(added.seconds),
        }
    if shim.profiler is not None:
        stats = pstats.Stats(shim.profiler).stats
        report["profile"] = {
            "layers": layers.attribute(stats),
            "py_calls": layers.python_calls(stats),
            "lit_release": layers.call_count(
                stats, "sched/leave_in_time.py", "_release"),
            "lit_on_arrival": layers.call_count(
                stats, "sched/leave_in_time.py", "on_arrival"),
            "process_resume": layers.call_count(
                stats, "sim/process.py", "_resume"),
            "inject": layers.call_count(
                stats, "net/network.py", "inject"),
            "tally_observe": layers.call_count(
                stats, "sim/monitor.py", "observe"),
        }
    return report


def probes(seed: int, scale: float) -> dict:
    """Layers measured alone; each figure is the best of a few repeats."""
    # Imported here so that a workload child's import_s does not pay for
    # modules only the probes use.
    from repro.analysis.throughput import kernel_spin
    from repro.experiments.space_parallel import tandem_builder
    from repro.sim.parallel import run_serial, run_sharded

    spin = max(events / wall for events, wall in
               (kernel_spin(20.0 * scale) for _ in range(5)))
    serial_s, sharded_s = [], []
    for _ in range(3):
        start = time.perf_counter()
        serial = run_serial(tandem_builder(seed=seed), 5.0 * scale)
        middle = time.perf_counter()
        sharded = run_sharded(tandem_builder(seed=seed), 5.0 * scale,
                              partitions=2, mode="inline")
        serial_s.append(middle - start)
        sharded_s.append(time.perf_counter() - middle)
    return {
        "spin_ev_per_s": spin,
        "inline2_over_serial": min(sharded_s) / min(serial_s),
        "shard_events_over_serial": (sum(sharded.shard_events)
                                     / serial.events_dispatched),
        "checks": [{"name": "sharded_digest",
                    "ok": sharded.digest == serial.digest,
                    "detail": "inline 2-shard digest differs from serial"}],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=("plain", "spans", "profile", "probes"))
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on the workload's frozen horizon")
    parser.add_argument("--state", choices=("objects", "soa"))
    parser.add_argument("--discipline", default=workloads.LIT,
                        choices=sorted(workloads.DISCIPLINES))
    parser.add_argument("--calibrate", action="store_true",
                        help="time calibrate() slices around the workload")
    parser.add_argument("--t0", type=float,
                        help="parent's perf_counter just before the spawn")
    args = parser.parse_args()
    report = (probes(args.seed, args.scale) if args.mode == "probes"
              else measure(args))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
