#!/usr/bin/env python3
"""Discipline shoot-out: one workload, eight disciplines, nine rows.

Runs the identical CROSS-style workload — a five-hop 32 kbit/s ON-OFF
target session against bursty Poisson cross traffic — under every
discipline in the library (Leave-in-Time twice: without and with
jitter control), and prints the target's delay statistics side by
side. The table makes Section 4's comparisons concrete:

* rate-based deadline disciplines (Leave-in-Time, WFQ) isolate the
  target. The ``leave-in-time`` row is VirtualClock too: its default
  policy is ``d = L/r``, which ``tests/sched/test_equivalence.py``
  holds to eq. 2 packet for packet;
* framing disciplines (Stop-and-Go, HRR) isolate it too but pay frame
  quantization in delay;
* regulator disciplines (Jitter-EDD, RCSP) bound jitter;
* FCFS collapses under the cross traffic's burstiness.

Run:  python examples/discipline_shootout.py
"""

from repro import (
    FCFS,
    RCSP,
    WFQ,
    DelayEDD,
    HierarchicalRoundRobin,
    JitterEDD,
    LeaveInTime,
    OnOffSource,
    PoissonSource,
    Session,
    StopAndGo,
    build_paper_network,
    kbps,
    ms,
    route_from_letters,
)

FIVE_HOP = ("n1", "n2", "n3", "n4", "n5")

#: EDD local per-hop delay budgets for the two traffic types.
EDD_DELAYS = {"target": ms(14), **{f"cross-{e}": ms(1)
                                   for e in "abcde"}}

DISCIPLINES = {
    "leave-in-time": LeaveInTime,
    "leave-in-time+jc": LeaveInTime,  # jitter-controlled variant
    "wfq (pgps)": WFQ,
    "delay-edd": lambda: DelayEDD(local_delays=dict(EDD_DELAYS)),
    "jitter-edd": lambda: JitterEDD(local_delays=dict(EDD_DELAYS)),
    "stop-and-go": lambda: StopAndGo(frame=ms(13.25)),
    "hrr": lambda: HierarchicalRoundRobin(frame=ms(13.25)),
    "rcsp": lambda: RCSP(levels=[ms(5), ms(20)],
                         assignment={"target": 1, "cross-a": 0,
                                     "cross-b": 0, "cross-c": 0,
                                     "cross-d": 0, "cross-e": 0}),
    "fcfs": FCFS,
}


def run_one(name, factory, *, duration=30.0):
    network = build_paper_network(factory, seed=6)
    target = Session("target", rate=kbps(32), route=FIVE_HOP,
                     l_max=424,
                     jitter_control=name.endswith("+jc"))
    network.add_session(target, keep_samples=False)
    OnOffSource(network, target, length=424, spacing=ms(13.25),
                mean_on=ms(352), mean_off=ms(650))
    for entrance, exit_ in zip("abcde", "fghij"):
        cross = Session(f"cross-{entrance}", rate=kbps(1408),
                        route=route_from_letters(entrance, exit_),
                        l_max=424)
        network.add_session(cross, keep_samples=False)
        PoissonSource(network, cross, length=424, mean=0.30104e-3)
    network.run(duration)
    return network.sink("target")


def main() -> None:
    print(f"{'discipline':18s} {'pkts':>5s} {'mean(ms)':>9s} "
          f"{'max(ms)':>8s} {'jitter(ms)':>10s}")
    for name, factory in DISCIPLINES.items():
        sink = run_one(name, factory)
        print(f"{name:18s} {sink.received:5d} "
              f"{sink.delay.mean * 1e3:9.2f} "
              f"{sink.max_delay * 1e3:8.2f} "
              f"{sink.jitter * 1e3:10.2f}")


if __name__ == "__main__":
    main()
