"""Space-parallel kernel: serial/sharded digest identity + guard rails.

The acceptance contract of :mod:`repro.sim.parallel`: on a topology
bigger than any shard, the merged dispatch digest of an inline sharded
run is bit-identical to the serial run at any shard count.  Plus the
fail-loud restrictions (session churn, sanitizer, the retired process
coordinator).
"""

import math

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.network import Network
from repro.net.session import Session
from repro.net.topology import partition_network
from repro.sched.leave_in_time import LeaveInTime
from repro.sim.parallel import (
    PacketEnvelope,
    _barriers,
    _split_inboxes,
    carve_network,
    run_serial,
    run_sharded,
)
from repro.sim.trace import Tracer
from repro.traffic.onoff import OnOffSource
from repro.units import ms

DURATION = 0.25
NODES = 8


def build():
    """Eight-node T1 tandem with routes crossing every contiguous cut."""
    network = Network(seed=7, tracer=Tracer(True))
    names = [f"n{i}" for i in range(1, NODES + 1)]
    for name in names:
        network.add_node(name, LeaveInTime(), capacity=1_536_000.0,
                         propagation=0.001)
    routes = [
        names,                      # end to end
        names[1:5],                 # straddles the 2-way cut
        names[3:7],                 # straddles the 4-way cuts
        names[:3],
        names[5:],
        names[2:4],                 # one hop
    ]
    for index, route in enumerate(routes):
        session = Session(f"s{index}", rate=32_000.0, route=route,
                          l_max=424.0)
        network.add_session(session, keep_samples=False)
        OnOffSource(network, session, length=424.0, spacing=ms(13.25),
                    mean_on=ms(352.0), mean_off=ms(88.0))
    return network


@pytest.fixture(scope="module")
def serial_clean():
    return run_serial(build, DURATION)


class TestDigestIdentity:
    @pytest.mark.parametrize("parts", [1, 2, 4])
    def test_matches_serial(self, serial_clean, parts):
        sharded = run_sharded(build, DURATION, partitions=parts)
        assert sharded.digest == serial_clean.digest
        assert len(sharded.partition) == parts

    def test_single_partition_degenerates_to_serial(self):
        result = run_sharded(build, DURATION, partitions=1)
        assert result.mode == "serial"
        assert result.window == math.inf


class TestRestrictions:
    def test_remove_session_rejected_when_carved(self):
        network = build()
        partition = partition_network(network, 2)
        carve_network(network, partition, 0)
        with pytest.raises(SimulationError, match="churn"):
            network.remove_session("s0")

    def test_sanitizer_rejected(self):
        network = build()
        network.sanitizer = object()
        partition = partition_network(network, 2)
        with pytest.raises(SimulationError, match="sanitiz"):
            carve_network(network, partition, 0)

    def test_double_carve_rejected(self):
        network = build()
        partition = partition_network(network, 2)
        carve_network(network, partition, 0)
        with pytest.raises(SimulationError):
            carve_network(network, partition, 1)

    def test_bad_mode_and_duration_rejected(self):
        # Only the inline runner is left; the forked-process
        # coordinator was measured slower than serial and removed.
        for mode in ("process", "threads"):
            with pytest.raises(ConfigurationError,
                               match="docs/parallel_kernel.md"):
                run_sharded(build, DURATION, partitions=2, mode=mode)
        with pytest.raises(ConfigurationError):
            run_sharded(build, 0.0, partitions=2)


class TestMachinery:
    def test_barriers_cover_every_window_multiple(self):
        assert _barriers(1.0, 0.25) == [0.25, 0.5, 0.75, 1.0]
        assert _barriers(0.3, 0.25) == [0.25]
        assert _barriers(1.0, math.inf) == []

    def test_split_inboxes_orders_globally_and_routes_by_owner(self):
        def envelope(arrival, sent_at, origin, session_id, seq):
            return PacketEnvelope(
                session_id=session_id, seq=seq, length=424.0,
                entry_time=0.0, hop_index=0, holding_time=0.0,
                sent_at=sent_at, arrival=arrival, origin=origin)

        routes = {"sa": ("a", "b"), "sb": ("c", "d")}
        owner = {"a": 0, "b": 1, "c": 1, "d": 0}
        late = envelope(0.002, 0.001, "a", "sa", 1)
        early = envelope(0.001, 0.0, "c", "sb", 0)
        inboxes = _split_inboxes([[late], [early]], owner, routes, 2)
        # sb's next hop (d) is on shard 0, sa's (b) on shard 1; the
        # global sort puts the earlier arrival first.
        assert inboxes[0] == [early]
        assert inboxes[1] == [late]
        merged = sorted([late, early], key=lambda env: env.sort_key)
        assert merged == [early, late]
