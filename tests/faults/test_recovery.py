"""Recovery: a link that comes back serves the whole backlog."""

from repro.faults import FaultInjector, FaultPlan, LinkDown
from repro.sched.leave_in_time import LeaveInTime
from tests.conftest import add_trace_session, make_network


def test_requeue_serves_the_whole_backlog():
    # 100-bit packets at 1000 bit/s; VirtualClock default gives each
    # packet d = L/r = 1 s, so the first two deadlines pass during the
    # outage: nothing is discarded for it.
    network = make_network(LeaveInTime, nodes=1, capacity=1000.0)
    add_trace_session(network, "s", rate=100.0,
                      times=[0.1, 0.2, 4.9], lengths=100.0,
                      route=["n1"])
    FaultInjector(FaultPlan(link_downs=[LinkDown("n1", 0.0, 5.0)])
                  ).install(network)
    network.run(10.0)
    assert network.sink("s").received == 3
    assert network.node("n1").faults.drops == {}
