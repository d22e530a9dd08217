"""Full-stack integration tests on the paper topology.

These tie everything together: admission control installs policies,
schedulers honour them, sources drive the network, and the measured
behaviour satisfies the closed-form guarantees.
"""

import pytest

from repro.admission.classes import DelayClass
from repro.admission.controller import AdmissionController
from repro.admission.procedure1 import Procedure1
from repro.bounds.delay import compute_session_bounds
from repro.experiments.common import (
    FIVE_HOP,
    add_cross_traffic,
    add_onoff_session,
    build_mix_network,
)
from repro.net.topology import build_paper_network
from repro.sched.leave_in_time import LeaveInTime
from repro.sched.wfq import WFQ
from repro.units import kbps, ms


class TestMixConfiguration:
    @pytest.fixture(scope="class")
    def network(self):
        network = build_mix_network(ms(88), seed=5)
        network.run(8.0)
        return network

    def test_all_116_sessions_flow(self, network):
        assert len(network.sessions) == 116
        flowing = sum(1 for sink in network.sinks.values()
                      if sink.received > 0)
        assert flowing > 110  # all but perhaps a few just-started

    def test_every_session_within_its_bound(self, network):
        for session in network.sessions.values():
            bounds = compute_session_bounds(network, session)
            sink = network.sinks[session.id]
            if sink.delay.count:
                assert sink.max_delay <= bounds.max_delay

    def test_nodes_share_load(self, network):
        utilizations = [network.node(f"n{i}").utilization()
                        for i in range(1, 6)]
        assert all(0.3 < u <= 1.0 for u in utilizations)

    def test_no_packets_stuck(self, network):
        # Everything injected is either delivered or in flight at the
        # horizon; schedulers hold nothing indefinitely.
        injected = sum(s.packets_sent for s in network.sessions.values())
        delivered = sum(k.received for k in network.sinks.values())
        in_flight = sum(node.scheduler.backlog
                        + (1 if node.transmitting else 0)
                        for node in network.nodes.values())
        assert injected - delivered <= in_flight + 5 * len(
            network.nodes)  # packets on links (propagation)


class TestAdmissionIntoLiveNetwork:
    def test_admitted_mix_with_procedure1_one_class(self):
        # ACP1/one-class is the Figure-7 setting; admitting all 116
        # sessions must succeed (exactly fills every link).
        network = build_paper_network(LeaveInTime, seed=2)
        controller = AdmissionController(
            network,
            lambda node: Procedure1(
                node.link.capacity,
                [DelayClass(node.link.capacity, ms(13.25))]))
        from repro.experiments.common import mix_specs
        from repro.net.session import Session
        for spec in mix_specs():
            session = Session(spec.session_id, rate=kbps(32),
                              route=spec.route, l_max=424.0)
            controller.admit(session, class_number=1)
            network.add_session(session, keep_samples=False)
        assert all(controller.reserved_rate(f"n{i}") == pytest.approx(
            1.536e6) for i in range(1, 6))

    def test_117th_session_rejected(self):
        network = build_paper_network(LeaveInTime, seed=2)
        controller = AdmissionController(
            network,
            lambda node: Procedure1(
                node.link.capacity,
                [DelayClass(node.link.capacity, ms(13.25))]))
        from repro.experiments.common import mix_specs
        from repro.net.session import Session
        for spec in mix_specs():
            controller.admit(Session(spec.session_id, rate=kbps(32),
                                     route=spec.route, l_max=424.0),
                             class_number=1)
        from repro.errors import AdmissionError
        with pytest.raises(AdmissionError):
            controller.admit(Session("extra", rate=kbps(32),
                                     route=list(FIVE_HOP), l_max=424.0),
                             class_number=1)


class TestCrossDisciplineComparison:
    def test_wfq_also_isolates_on_this_workload(self):
        # WFQ is the paper's closest competitor: same CROSS workload,
        # comparable target delay, sanity for the PGPS-equality story.
        results = {}
        for name, factory in (("lit", LeaveInTime), ("wfq", WFQ)):
            network = build_paper_network(factory, seed=9)
            target = add_onoff_session(network, "t", FIVE_HOP, ms(650))
            add_cross_traffic(network)
            network.run(8.0)
            results[name] = network.sink("t").max_delay
        assert results["wfq"] <= 72.63e-3
        assert results["lit"] <= 72.63e-3

    def test_jitter_controlled_session_unharmed_by_discipline(self):
        network = build_paper_network(LeaveInTime, seed=11)
        target = add_onoff_session(network, "t", FIVE_HOP, ms(650),
                                   jitter_control=True)
        add_cross_traffic(network)
        network.run(8.0)
        bounds = compute_session_bounds(network, target)
        sink = network.sink("t")
        assert sink.received > 0
        assert sink.max_delay <= bounds.max_delay
        assert sink.jitter <= bounds.jitter
