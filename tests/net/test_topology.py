"""Unit tests for the Figure-6 topology and the MIX/CROSS configurations."""

import math
from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import mix_specs
from repro.net.network import Network
from repro.net.session import Session
from repro.net.topology import (
    CROSS_ONE_HOP_ROUTES,
    CROSS_ROUTES,
    build_paper_network,
    cut_lookahead,
    partition_network,
    route_edges,
)
from repro.sched.fcfs import FCFS
from repro.units import PAPER_PROPAGATION_S, T1_RATE_BPS


def test_five_nodes_with_t1_links():
    network = build_paper_network(FCFS)
    assert sorted(network.nodes) == ["n1", "n2", "n3", "n4", "n5"]
    for node in network.nodes.values():
        assert node.link.capacity == T1_RATE_BPS
        assert node.link.propagation == PAPER_PROPAGATION_S


def test_mix_loads_every_node_with_48_sessions():
    # 48 sessions x 32 kbit/s = exactly the T1 capacity at every node —
    # the property that makes the paper's sigma values work out.
    loads = Counter(node for spec in mix_specs() for node in spec.route)
    assert loads == {f"n{i}": 48 for i in range(1, 6)}


def test_mix_totals_by_hop_count():
    # Per-route list from the paper; its "8 four-hop" summary is a
    # known arithmetic slip (see repro.net.topology docstring).
    by_hops = {}
    for spec in mix_specs():
        by_hops[len(spec.route)] = by_hops.get(len(spec.route), 0) + 1
    assert by_hops[5] == 10
    assert by_hops[3] == 16
    assert by_hops[2] == 16
    assert by_hops[1] == 62
    assert by_hops[4] == 12
    assert sum(by_hops.values()) == 116


def test_mix_rate_commits_full_capacity():
    loads = Counter(node for spec in mix_specs() for node in spec.route)
    for count in loads.values():
        assert count * 32_000.0 == pytest.approx(T1_RATE_BPS)


def test_cross_routes():
    assert CROSS_ROUTES[0] == "a-j"
    assert CROSS_ONE_HOP_ROUTES == ["a-f", "b-g", "c-h", "d-i", "e-j"]


def test_custom_node_count():
    network = build_paper_network(FCFS, node_count=3)
    assert sorted(network.nodes) == ["n1", "n2", "n3"]


def test_retired_state_backend_parameter_is_a_type_error():
    with pytest.raises(TypeError, match="state_backend"):
        build_paper_network(FCFS, state_backend="soa")


def tandem(propagations, route=None):
    """A tandem whose node k has link propagation ``propagations[k]``;
    one session along ``route`` (default: every node) defines the route
    edges the partitioner sees."""
    network = Network(seed=0)
    names = [f"n{i}" for i in range(1, len(propagations) + 1)]
    for name, propagation in zip(names, propagations):
        network.add_node(name, FCFS(), capacity=1000.0,
                         propagation=propagation)
    hops = route if route is not None else names
    session = Session("s", rate=100.0, route=hops, l_max=100.0)
    network.add_session(session, keep_samples=False)
    return network, names


class TestPartitioner:
    def test_route_edges_use_transmitter_propagation(self):
        network, _ = tandem([0.001, 0.002, 0.003])
        assert route_edges(network) == {("n1", "n2"): 0.001,
                                        ("n2", "n3"): 0.002}

    def test_contiguous_balanced_split(self):
        network, names = tandem([0.001] * 8)
        partition = partition_network(network, 2)
        assert partition == (frozenset(names[:4]), frozenset(names[4:]))
        quarters = partition_network(network, 4)
        assert [len(part) for part in quarters] == [2, 2, 2, 2]

    def test_single_part_is_everything(self):
        network, names = tandem([0.001] * 3)
        assert partition_network(network, 1) == (frozenset(names),)

    def test_zero_gamma_edges_merge(self):
        # n2 -> n3 has zero propagation: the two nodes become one
        # supernode and always land in the same shard.
        network, _ = tandem([0.001, 0.0, 0.001, 0.001])
        for parts in (2, 3):
            partition = partition_network(network, parts)
            owner = {name: index
                     for index, part in enumerate(partition)
                     for name in part}
            assert owner["n2"] == owner["n3"]

    def test_more_parts_than_supernodes_rejected(self):
        # n1+n2 merge (zero-Γ edge): two supernodes, so 2 parts fit
        # but 3 cannot.
        network, _ = tandem([0.0, 0.001, 0.001])
        assert len(partition_network(network, 2)) == 2
        with pytest.raises(ConfigurationError):
            partition_network(network, 3)

    def test_cut_lookahead_is_min_gamma_over_cut(self):
        network, _ = tandem([0.004, 0.002, 0.003, 0.001])
        partition = (frozenset({"n1", "n2"}), frozenset({"n3", "n4"}))
        assert cut_lookahead(network, partition) == 0.002
        everything = (frozenset({"n1", "n2", "n3", "n4"}),)
        assert cut_lookahead(network, everything) == math.inf
