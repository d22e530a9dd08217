"""Property-based tests across service disciplines.

Randomized-workload invariants for the baselines (the Leave-in-Time
invariants live in ``test_properties.py``):

* every non-work-conserving hold is non-negative and finite,
* RCSP regulators never release below x_min spacing,
* framing disciplines never transmit a packet in its arrival frame,
* jitter bound validity for Leave-in-Time with jitter control,
* all deadline disciplines deliver everything (no packet leaks).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.delay import compute_session_bounds
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.rcsp import RCSP
from repro.sched.stop_and_go import StopAndGo
from repro.sched.wfq import WFQ
from repro.traffic.token_bucket import shape_arrivals
from tests.conftest import add_trace_session, make_network

gaps = st.lists(st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=25)


def arrivals_from(gap_list):
    times, acc = [], 0.0
    for gap in gap_list:
        acc += gap
        times.append(acc)
    return times


class TestDeliveryCompleteness:
    @settings(max_examples=15, deadline=None)
    @given(gap_lists=st.lists(gaps, min_size=1, max_size=3))
    def test_every_discipline_delivers_everything(self, gap_lists):
        factories = [WFQ, LeaveInTime,
                     lambda: StopAndGo(frame=0.25),
                     lambda: RCSP([0.5, 2.0])]
        for factory in factories:
            network = make_network(factory, nodes=2, capacity=10_000.0)
            expected = []
            for index, gap_list in enumerate(gap_lists):
                times = arrivals_from(gap_list)
                _, sink, _ = add_trace_session(
                    network, f"s{index}", rate=2000.0, times=times,
                    lengths=424.0, route=["n1", "n2"])
                expected.append((sink, len(times)))
            network.run(10_000.0)
            for sink, count in expected:
                assert sink.received == count


class TestFramingProperty:
    @settings(max_examples=20, deadline=None)
    @given(gap_list=gaps)
    def test_stop_and_go_never_sends_in_arrival_frame(self, gap_list):
        frame = 0.25
        network = make_network(lambda: StopAndGo(frame=frame),
                               capacity=10_000.0, trace=True)
        times = arrivals_from(gap_list)
        add_trace_session(network, "s", rate=2000.0, times=times,
                          lengths=424.0)
        network.run(10_000.0)
        arrivals = {r.packet: r.time
                    for r in network.tracer.filter("arrival", node="n1")}
        for record in network.tracer.filter("tx_start", node="n1"):
            arrival_frame = int(arrivals[record.packet] / frame)
            start_frame = int(record.time / frame + 1e-9)
            assert start_frame > arrival_frame


class TestRcspRegulatorProperty:
    @settings(max_examples=20, deadline=None)
    @given(gap_list=gaps)
    def test_spacing_at_least_x_min(self, gap_list):
        x_min = 0.2
        network = make_network(
            lambda: RCSP([1.0], x_min={"s": x_min}),
            capacity=10_000.0, trace=True)
        times = arrivals_from(gap_list)
        add_trace_session(network, "s", rate=2000.0, times=times,
                          lengths=424.0)
        network.run(10_000.0)
        starts = sorted(r.time for r in
                        network.tracer.filter("tx_start", node="n1"))
        for a, b in zip(starts, starts[1:]):
            assert b - a >= x_min - 1e-9


class TestJitterBoundProperty:
    @settings(max_examples=15, deadline=None)
    @given(gap_list=gaps)
    def test_jitter_control_bound_holds(self, gap_list):
        rate, depth = 1000.0, 848.0
        raw = arrivals_from(gap_list)
        times = shape_arrivals(raw, [424.0] * len(raw), rate, depth)
        network = make_network(LeaveInTime, nodes=3, capacity=10_000.0)
        session, sink, _ = add_trace_session(
            network, "target", rate=rate, times=times, lengths=424.0,
            route=["n1", "n2", "n3"], jitter_control=True,
            token_bucket=(rate, depth))
        add_trace_session(network, "bg", rate=4000.0,
                          times=[0.05 * i for i in range(40)],
                          lengths=424.0, route=["n1", "n2", "n3"])
        network.run(10_000.0)
        bounds = compute_session_bounds(network, session)
        assert sink.received == len(times)
        assert sink.jitter <= bounds.jitter + 1e-12
        assert sink.max_delay <= bounds.max_delay + 1e-12


class TestFairQueueingProperty:
    @settings(max_examples=15, deadline=None)
    @given(burst=st.integers(min_value=2, max_value=25))
    def test_wfq_isolates_steady_session(self, burst):
        network = make_network(WFQ, capacity=10_000.0)
        add_trace_session(network, "burst", rate=5000.0,
                          times=[0.0] * burst, lengths=424.0)
        _, sink, _ = add_trace_session(
            network, "steady", rate=5000.0, times=[0.001],
            lengths=424.0)
        network.run(10_000.0)
        # GPS finish for the steady packet: <= 0.001 + 2*L/r
        # regardless of the burst size; WFQ adds O(L/C).
        assert sink.max_delay < 2 * 424.0 / 5000.0 + 0.1
