"""Unit tests for FCFS and the deadline heap of ``DeadlineScheduler``."""

from repro.net.packet import Packet
from repro.net.session import Session
from repro.sched.edd import DelayEDD
from repro.sched.fcfs import FCFS
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.wfq import WFQ
from tests.conftest import add_trace_session, make_network


def make_packet(deadline, seq=1):
    session = Session("s", rate=100.0, route=["n1"], l_max=1000.0)
    packet = Packet(session, seq, 100.0, 0.0)
    packet.deadline = deadline
    return packet


class TestFCFS:
    def test_serves_in_arrival_order_across_sessions(self):
        network = make_network(FCFS, capacity=1000.0, trace=True)
        add_trace_session(network, "a", rate=100.0, times=[0.0, 0.02],
                          lengths=100.0)
        add_trace_session(network, "b", rate=100.0, times=[0.01],
                          lengths=100.0)
        network.run(10.0)
        starts = [(r.session, r.packet) for r in
                  network.tracer.filter("tx_start", node="n1")]
        assert starts == [("a", 1), ("b", 1), ("a", 2)]

    def test_no_isolation(self):
        # A burst from session a delays session b behind it.
        network = make_network(FCFS, capacity=1000.0)
        add_trace_session(network, "a", rate=100.0,
                          times=[0.0] * 10, lengths=100.0)
        _, sink_b, _ = add_trace_session(network, "b", rate=100.0,
                                         times=[0.01], lengths=100.0)
        network.run(10.0)
        assert sink_b.max_delay > 0.9  # ten packets ahead of it

    def test_backlog(self):
        network = make_network(FCFS, capacity=1.0)
        add_trace_session(network, "s", rate=1.0, times=[0.0, 0.0],
                          lengths=10.0)
        network.run(1.0)
        assert network.node("n1").scheduler.backlog == 1


class TestHeapDeadlineQueue:
    """The one deadline heap, driven through ``DeadlineScheduler``."""

    def test_pops_in_deadline_order(self):
        scheduler = LeaveInTime()
        for deadline in (3.0, 1.0, 2.0):
            scheduler._push(make_packet(deadline))
        assert [scheduler.next_packet(0.0).deadline
                for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_fifo_among_equal_deadlines(self):
        for discipline in (LeaveInTime, DelayEDD, WFQ):
            scheduler = discipline()
            packets = [make_packet(1.0, seq=i) for i in range(5)]
            for packet in packets:
                scheduler._push(packet)
            served = [scheduler.next_packet(0.0) for _ in range(5)]
            assert served == packets, discipline.__name__

    def test_empty_pop_returns_none(self):
        assert LeaveInTime().next_packet(0.0) is None

    def test_len_and_peek(self):
        scheduler = LeaveInTime()
        scheduler._push(make_packet(2.0))
        scheduler._push(make_packet(1.0))
        assert scheduler._queued() == 2
        assert scheduler._eligible[0][0] == 1.0
