"""Unit tests for transactional route-level admission."""

import pytest

from repro.admission.classes import DelayClass
from repro.admission.controller import AdmissionController
from repro.admission.procedure1 import Procedure1
from repro.admission.procedure2 import Procedure2
from repro.errors import AdmissionError
from repro.net.session import Session
from repro.sched.leave_in_time import LeaveInTime
from tests.conftest import make_network


def controller_for(network, classes=None):
    menu = classes or [DelayClass(1000.0, 1.0)]
    return AdmissionController(
        network, lambda node: Procedure1(node.link.capacity, menu))


def test_admit_installs_policies_everywhere():
    network = make_network(LeaveInTime, nodes=3, capacity=1000.0)
    controller = controller_for(network)
    session = Session("s", rate=100.0, route=["n1", "n2", "n3"],
                      l_max=100.0)
    controller.admit(session, class_number=1)
    assert set(session.delay_policies) == {"n1", "n2", "n3"}
    for node_name in session.route:
        assert controller.procedures[node_name].is_admitted("s")


def test_rejection_rolls_back_upstream_reservations():
    network = make_network(LeaveInTime, nodes=3, capacity=1000.0)
    controller = controller_for(network)
    # Fill n3 so a route crossing it is rejected there.
    blocker = Session("blocker", rate=1000.0, route=["n3"], l_max=100.0)
    controller.admit(blocker, class_number=1)
    session = Session("s", rate=100.0, route=["n1", "n2", "n3"],
                      l_max=100.0)
    with pytest.raises(AdmissionError) as err:
        controller.admit(session, class_number=1)
    assert err.value.node == "n3"
    # n1 and n2 reservations were rolled back.
    assert not controller.procedures["n1"].is_admitted("s")
    assert not controller.procedures["n2"].is_admitted("s")
    assert session.delay_policies == {}


def test_release_clears_everywhere():
    network = make_network(LeaveInTime, nodes=2, capacity=1000.0)
    controller = controller_for(network)
    session = Session("s", rate=100.0, route=["n1", "n2"], l_max=100.0)
    controller.admit(session, class_number=1)
    controller.release(session)
    assert session.delay_policies == {}
    assert not controller.procedures["n1"].is_admitted("s")
    assert controller.reserved_rate("n1") == 0.0


def test_release_unknown_session_is_noop():
    network = make_network(LeaveInTime, capacity=1000.0)
    controller = controller_for(network)
    controller.release(Session("ghost", rate=1.0, route=["n1"],
                               l_max=1.0))


def test_per_node_capacities_respected():
    network = make_network(LeaveInTime, nodes=1, capacity=1000.0)
    network.add_node("small", LeaveInTime(), capacity=100.0)
    controller = AdmissionController(
        network,
        lambda node: Procedure1(node.link.capacity,
                                [DelayClass(node.link.capacity, 1.0)]))
    session = Session("s", rate=500.0, route=["n1", "small"],
                      l_max=100.0)
    with pytest.raises(AdmissionError) as err:
        controller.admit(session, class_number=1)
    assert err.value.node == "small"


def test_admitted_policies_drive_the_scheduler():
    # End-to-end: a class-2 policy increases the measured delay of a
    # lone packet held to its deadline order only through d; the
    # work-conserving server still sends immediately, so instead check
    # the policy objects the scheduler resolves.
    network = make_network(LeaveInTime, nodes=1, capacity=1000.0)
    classes = [DelayClass(100.0, 0.1), DelayClass(1000.0, 1.0)]
    controller = AdmissionController(
        network, lambda node: Procedure2(node.link.capacity, classes))
    session = Session("s", rate=100.0, route=["n1"], l_max=100.0)
    controller.admit(session, class_number=2)
    policy = session.policy_for("n1")
    # Rule 2.3: d = L*R1/(r*C) + sigma_2 = 100*100/(100*1000) + 1.0
    #         = 0.1 + 1.0.
    assert policy.d_of(100.0) == pytest.approx(1.1)
