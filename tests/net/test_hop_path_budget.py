"""A machine-independent budget for the per-packet-hop path.

Wall-clock gates cannot see a call creeping back into the forwarding
chain; counters can.  This profiles one second of the Fig. 7 MIX cell
(the ledger's ``mix_onoff`` / ``mix_jitter`` workloads, shortened) under
``cProfile`` and holds two numbers per configuration:

* events dispatched and packet-hops served — **exactly** the committed
  integers: the hop path may fuse calls, never events, so a change here
  also moves every dispatch-order golden in ``tests/sim``;
* Python-level function calls per packet-hop — at most the committed
  ceiling (what the tree reached, rounded up to one decimal).  Raise a
  ceiling only with a reason; lower it when a PR shortens the path.

Counts are those of ``benchmarks/ledger`` (``total.py_calls_per_pkt_hop``):
every profiled function that is not a C builtin.
"""

import cProfile
import pstats

import pytest

from repro.experiments.common import build_mix_network, mix_specs
from repro.units import ms

HORIZON_S = 1.0

#: jitter control -> (events dispatched, packet-hops served), seed 0.
EVENTS_AND_HOPS = {False: (44142, 17723), True: (52628, 17503)}

#: jitter control -> Python calls per packet-hop.  Before the
#: timer-callback sources and the flattened forwarding chain these
#: read 24.7 / 29.9.
CALLS_PER_HOP_CEILING = {False: 16.2, True: 19.3}


@pytest.mark.parametrize("jitter", [False, True], ids=["plain", "jitter"])
def test_hop_path_budget(jitter):
    jitter_ids = (frozenset(spec.session_id for spec in mix_specs())
                  if jitter else frozenset())
    network = build_mix_network(ms(6.5), seed=0, jitter_ids=jitter_ids)

    profiler = cProfile.Profile()
    profiler.enable()
    network.run(HORIZON_S)
    profiler.disable()

    hops = sum(node.packets_served for node in network.nodes.values())
    assert (network.sim.events_dispatched, hops) == EVENTS_AND_HOPS[jitter]
    calls = sum(row[1] for (filename, _, _), row
                in pstats.Stats(profiler).stats.items()
                if filename != "~")
    ceiling = CALLS_PER_HOP_CEILING[jitter]
    assert calls / hops <= ceiling, (
        f"{calls / hops:.3f} Python calls per packet-hop"
        f"{' with jitter control' if jitter else ''}; the committed "
        f"ceiling is {ceiling}")
