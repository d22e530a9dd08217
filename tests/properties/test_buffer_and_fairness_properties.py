"""Property tests: per-node buffer-bound validity.

The buffer property closes the last bound family not yet covered by a
randomized validity test: for token-bucket-shaped sessions on a
contended Leave-in-Time tandem, the *measured* peak per-node occupancy
(tracked at every node for every session) must stay below the
closed-form per-node bound — with and without jitter control.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.delay import compute_session_bounds
from repro.sched.leave_in_time import LeaveInTime
from repro.traffic.token_bucket import shape_arrivals
from tests.conftest import add_trace_session, make_network

gaps = st.lists(st.floats(min_value=0.0, max_value=1.5,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=25)


def arrivals_from(gap_list):
    times, acc = [], 0.0
    for gap in gap_list:
        acc += gap
        times.append(acc)
    return times


class TestBufferBoundProperty:
    @settings(max_examples=20, deadline=None)
    @given(gap_list=gaps, jitter_control=st.booleans())
    def test_peak_occupancy_below_bound_at_every_node(
            self, gap_list, jitter_control):
        rate, depth = 1000.0, 1272.0  # bucket of three packets
        raw = arrivals_from(gap_list)
        times = shape_arrivals(raw, [424.0] * len(raw), rate, depth)
        network = make_network(LeaveInTime, nodes=3, capacity=10_000.0)
        route = ["n1", "n2", "n3"]
        session, sink, _ = add_trace_session(
            network, "target", rate=rate, times=times, lengths=424.0,
            route=route, jitter_control=jitter_control,
            token_bucket=(rate, depth), l_max=424.0)
        add_trace_session(network, "bg", rate=4000.0,
                          times=[0.05 * i for i in range(40)],
                          lengths=424.0, route=route, l_max=424.0)
        network.run(10_000.0)
        bounds = compute_session_bounds(network, session)
        assert sink.received == len(times)
        for node_name, bound in zip(route, bounds.buffers):
            peak = network.node(node_name).buffer_peak["target"]
            assert peak <= bound + 1e-9

