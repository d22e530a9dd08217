"""The tandem the space-parallel probe shards — not an experiment.

Sharding one topology (:mod:`repro.sim.parallel`) measured slower than
a serial run on every cell tried (``docs/parallel_kernel.md``), so its
experiment, CLI subcommand and CI job are gone.  This builder stays
because the ledger benchmark's ``sim.parallel.*`` probe runs it,
serially and in two inline shards, and checks the two digests agree.
"""

from __future__ import annotations

from typing import Callable, List

from repro.errors import SimulationError
from repro.net.network import Network
from repro.net.session import Session
from repro.sched.leave_in_time import LeaveInTime
from repro.sim.trace import Tracer
from repro.traffic.onoff import OnOffSource
from repro.units import PAPER_PROPAGATION_S, T1_RATE_BPS, ms

__all__ = ["tandem_builder", "DEFAULT_NODE_COUNT"]

DEFAULT_NODE_COUNT = 8

RATE = 32_000.0
PACKET = 424.0


def tandem_builder(*, node_count: int = DEFAULT_NODE_COUNT,
                   seed: int = 0) -> Callable[[], Network]:
    """A builder for an ``node_count``-node T1 tandem with mixed routes.

    Routes are chosen so that, for any contiguous partition, sessions
    enter on one shard and exit on another (full-length, staggered
    mid-tandem, and single-hop sessions).  The tracer is enabled —
    the digest is only as strong as what it can see.
    """
    if node_count < 4:
        raise SimulationError(
            f"space-parallel verification wants >= 4 nodes, "
            f"got {node_count}")

    def build() -> Network:
        network = Network(seed=seed, tracer=Tracer(True))
        names = [f"n{i}" for i in range(1, node_count + 1)]
        for name in names:
            network.add_node(name, LeaveInTime(), capacity=T1_RATE_BPS,
                             propagation=PAPER_PROPAGATION_S)
        routes: List[List[str]] = [names[:]]                 # end to end
        half = node_count // 2
        routes.append(names[:half + 1])                      # front half
        routes.append(names[half - 1:])                      # back half
        routes.append(names[1:node_count - 1])               # interior
        routes.append(names[half - 1:half + 1])              # one hop mid
        for k, route in enumerate(routes):
            session = Session(f"s{k}", rate=RATE, route=route,
                              l_max=PACKET)
            network.add_session(session, keep_samples=False)
            OnOffSource(network, session, length=PACKET,
                        spacing=ms(13.25), mean_on=ms(352.0),
                        mean_off=ms(88.0))
        return network

    return build
