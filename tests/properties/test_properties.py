"""Property-based tests (hypothesis) for core invariants.

These encode the paper's provable statements as executable properties
over randomized traffic and configurations:

* eq. 1 structure of the reference server,
* A ≥ 0 and the F̂ < F + L_MAX/C saturation invariant for admissible
  Leave-in-Time configurations,
* the VirtualClock special case (against the eq.-2 oracle),
* token-bucket shaper soundness,
* the eq. 12 delay bound on conformant sessions,
* M/D/1 CDF well-formedness.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.delay import compute_session_bounds
from repro.bounds.md1 import md1_wait_cdf
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.policy import DelayPolicy
from repro.sched.reference import reference_finish_times
from repro.traffic.token_bucket import is_conformant, shape_arrivals
from tests.conftest import (VirtualClockOracle, add_trace_session,
                            make_network)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

gaps = st.lists(st.floats(min_value=0.0, max_value=2.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=30)
lengths_strategy = st.lists(st.floats(min_value=1.0, max_value=424.0),
                            min_size=1, max_size=30)


def arrivals_from(gap_list):
    times, acc = [], 0.0
    for gap in gap_list:
        acc += gap
        times.append(acc)
    return times


# ----------------------------------------------------------------------
# Reference server (eq. 1)
# ----------------------------------------------------------------------

class TestReferenceServerProperties:
    @given(gaps=gaps, rate=st.floats(min_value=10.0, max_value=1e6))
    def test_finish_times_strictly_increase(self, gaps, rate):
        times = arrivals_from(gaps)
        finishes = reference_finish_times(times, [100.0] * len(times),
                                          rate)
        assert all(b > a for a, b in zip(finishes, finishes[1:]))

    @given(gaps=gaps, rate=st.floats(min_value=10.0, max_value=1e6))
    def test_delay_at_least_service_time(self, gaps, rate):
        times = arrivals_from(gaps)
        finishes = reference_finish_times(times, [100.0] * len(times),
                                          rate)
        for t, w in zip(times, finishes):
            assert w - t >= 100.0 / rate - 1e-12

    @given(gaps=gaps)
    def test_work_conservation(self, gaps):
        # Total busy time equals total work: the last finish equals
        # the makespan of a single busy machine.
        times = arrivals_from(gaps)
        rate = 100.0
        lengths = [100.0] * len(times)
        finishes = reference_finish_times(times, lengths, rate)
        # Replay greedily: same recursion, so this is a structural
        # check that no idle time is inserted while work is pending.
        busy = 0.0
        clock = times[0]
        for t, length in zip(times, lengths):
            clock = max(clock, t) + length / rate
            busy += length / rate
        assert finishes[-1] == pytest.approx(clock)


# ----------------------------------------------------------------------
# Token bucket shaper
# ----------------------------------------------------------------------

class TestShaperProperties:
    @given(gaps=gaps, lengths=lengths_strategy,
           rate=st.floats(min_value=100.0, max_value=1e5),
           depth=st.floats(min_value=424.0, max_value=5000.0))
    def test_shaped_output_conforms_and_preserves_order(
            self, gaps, lengths, rate, depth):
        n = min(len(gaps), len(lengths))
        times = arrivals_from(gaps[:n])
        lens = lengths[:n]
        releases = shape_arrivals(times, lens, rate, depth)
        assert all(r >= t - 1e-12 for r, t in zip(releases, times))
        assert all(b >= a for a, b in zip(releases, releases[1:]))
        assert is_conformant(releases, lens, rate, depth)


# ----------------------------------------------------------------------
# Leave-in-Time invariants
# ----------------------------------------------------------------------

def run_lit_tandem(gap_lists, *, jitter_control, capacity=10_000.0,
                   nodes=3):
    network = make_network(LeaveInTime, nodes=nodes, capacity=capacity,
                           trace=True)
    route = [f"n{i}" for i in range(1, nodes + 1)]
    sinks = []
    for index, gap_list in enumerate(gap_lists):
        times = arrivals_from(gap_list)
        _, sink, _ = add_trace_session(
            network, f"s{index}", rate=1000.0, times=times,
            lengths=424.0, route=route, jitter_control=jitter_control,
            l_max=424.0)
        sinks.append((sink, len(times)))
    network.run(10_000.0)
    return network, sinks


class TestLeaveInTimeProperties:
    @settings(max_examples=25, deadline=None)
    @given(gap_lists=st.lists(gaps, min_size=1, max_size=3))
    def test_all_packets_delivered_with_jitter_control(self, gap_lists):
        _, sinks = run_lit_tandem(gap_lists, jitter_control=True)
        for sink, expected in sinks:
            assert sink.received == expected

    @settings(max_examples=25, deadline=None)
    @given(gap_lists=st.lists(gaps, min_size=1, max_size=3))
    def test_saturation_invariant(self, gap_lists):
        # F̂ < F + L_MAX/C at every node (rates sum to 3000 < C).
        network, _ = run_lit_tandem(gap_lists, jitter_control=False)
        for node in network.nodes.values():
            lateness = node.scheduler.lateness
            if lateness.count:
                assert lateness.maximum < 424.0 / 10_000.0 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(gap_list=gaps)
    def test_delay_bound_holds_for_conformant_traffic(self, gap_list):
        # Shape the arrivals to the declared token bucket, then check
        # the end-to-end eq. 12 bound on a contended tandem.
        rate, depth = 1000.0, 848.0
        raw = arrivals_from(gap_list)
        times = shape_arrivals(raw, [424.0] * len(raw), rate, depth)
        network = make_network(LeaveInTime, nodes=3, capacity=10_000.0)
        route = ["n1", "n2", "n3"]
        session, sink, _ = add_trace_session(
            network, "target", rate=rate, times=times, lengths=424.0,
            route=route, token_bucket=(rate, depth), l_max=424.0)
        # Competing sessions with their own reservations.
        for index in range(2):
            competitor_times = [0.1 * i for i in range(40)]
            add_trace_session(network, f"bg{index}", rate=4000.0,
                              times=competitor_times, lengths=424.0,
                              route=route, l_max=424.0)
        network.run(10_000.0)
        bounds = compute_session_bounds(network, session)
        assert sink.received == len(times)
        assert sink.max_delay < bounds.max_delay + 1e-12


class TestVirtualClockEquivalenceProperty:
    @settings(max_examples=30, deadline=None)
    @given(gap_lists=st.lists(gaps, min_size=1, max_size=3),
           lengths=lengths_strategy)
    def test_deadlines_match_packet_for_packet(self, gap_lists,
                                               lengths):
        results = {}
        for name, factory in (("lit", LeaveInTime),
                              ("vc", VirtualClockOracle)):
            network = make_network(factory, capacity=10_000.0)
            sinks = []
            for index, gap_list in enumerate(gap_lists):
                times = arrivals_from(gap_list)
                lens = [lengths[i % len(lengths)]
                        for i in range(len(times))]
                _, sink, _ = add_trace_session(
                    network, f"s{index}", rate=1000.0, times=times,
                    lengths=lens, l_max=424.0)
                sinks.append(sink)
            network.run(10_000.0)
            results[name] = [
                [p.deadline for p in sink.packets] for sink in sinks]
        for lit_list, vc_list in zip(results["lit"], results["vc"]):
            assert lit_list == pytest.approx(vc_list, abs=1e-9)


# ----------------------------------------------------------------------
# Policies and analysis
# ----------------------------------------------------------------------

class TestPolicyProperties:
    @given(slope=st.floats(min_value=0.0, max_value=1e-3),
           offset=st.floats(min_value=0.0, max_value=1.0),
           l_min=st.floats(min_value=1.0, max_value=424.0),
           rate=st.floats(min_value=10.0, max_value=1e6))
    def test_alpha_term_dominates_sampled_lengths(self, slope, offset,
                                                  l_min, rate):
        policy = DelayPolicy(slope=slope, offset=offset, l_max=424.0,
                             l_min=l_min)
        alpha = policy.alpha_term(rate)
        for k in range(11):
            length = l_min + (424.0 - l_min) * k / 10
            assert policy.d_of(length) - length / rate <= alpha + 1e-12


class TestMd1Properties:
    @settings(max_examples=20, deadline=None)
    @given(rho=st.floats(min_value=0.05, max_value=0.95),
           service=st.floats(min_value=1e-4, max_value=1e-2),
           steps=st.integers(min_value=1, max_value=30))
    def test_cdf_monotone_and_bounded(self, rho, service, steps):
        lam = rho / service
        previous = 0.0
        for index in range(steps):
            t = index * service / 2
            value = md1_wait_cdf(t, lam, service)
            assert 0.0 <= value <= 1.0
            assert value >= previous - 1e-12
            previous = value
