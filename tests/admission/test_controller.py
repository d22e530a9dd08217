"""Unit tests for transactional route-level admission."""

import pytest

from repro.admission.classes import DelayClass
from repro.admission.controller import AdmissionController
from repro.admission.procedure1 import Procedure1
from repro.admission.procedure2 import Procedure2
from repro.admission.procedure3 import Procedure3
from repro.errors import AdmissionError, ConfigurationError
from repro.experiments.common import FIVE_HOP
from repro.net.session import Session
from repro.net.topology import build_paper_network
from repro.sched.leave_in_time import LeaveInTime
from repro.units import ms
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


# ----------------------------------------------------------------------
# A refusal of any kind leaves no reservation behind
# ----------------------------------------------------------------------
CALL_RATE = 32_000.0


def paper_controller(factory=None):
    """The paper network, each node guarded as ``call_churn`` guards it
    (one class spanning the T1 link) unless ``factory`` says otherwise."""
    network = build_paper_network(LeaveInTime)
    return AdmissionController(network, factory or (
        lambda node: Procedure1(node.link.capacity,
                                [DelayClass(node.link.capacity,
                                            ms(13.25))])))


def call(session_id="call", route=FIVE_HOP):
    return Session(session_id, rate=CALL_RATE, route=route, l_max=424.0)


def ledger(controller):
    return {name: (procedure.reserved_rate, procedure.admitted_count)
            for name, procedure in controller.procedures.items()}


def assert_refused_cleanly(controller, session, match, **options):
    """``admit`` raises a ConfigurationError matching ``match``, and
    every node's ledger and the session's policies are as before."""
    before = ledger(controller)
    with pytest.raises(ConfigurationError, match=match):
        controller.admit(session, **options)
    assert ledger(controller) == before
    assert session.delay_policies == {}


def test_bad_epsilon_leaves_no_reservation():
    controller = paper_controller()
    controller.admit(call("other"), class_number=1)
    session = call()
    assert_refused_cleanly(controller, session, "got -1.0",
                           class_number=1, epsilon=-1.0)
    controller.admit(session, class_number=1, epsilon=0.0)
    assert controller.reserved_rate("n1") == 2 * CALL_RATE


def test_class_out_of_range_downstream_leaves_no_reservation():
    # n1 offers two classes, every other node one: class 2 passes n1.
    def factory(node):
        classes = [DelayClass(node.link.capacity, ms(13.25))]
        if node.name == "n1":
            classes.insert(0, DelayClass(node.link.capacity / 2,
                                         ms(13.25)))
        return Procedure1(node.link.capacity, classes)
    controller = paper_controller(factory)
    session = call()
    assert_refused_cleanly(controller, session, "class 2 out of range",
                           class_number=2)
    controller.admit(session, class_number=1)
    assert set(session.delay_policies) == set(FIVE_HOP)


def test_unknown_node_leaves_no_reservation():
    controller = paper_controller()
    assert_refused_cleanly(controller, call(route=("n1", "n2", "n9")),
                           "unknown node 'n9'", class_number=1)
    controller.admit(call(route=("n1", "n2")), class_number=1)
    assert ledger(controller)["n1"] == (CALL_RATE, 1)


@pytest.mark.parametrize("d", [float("inf"), float("nan")])
def test_procedure3_non_finite_d_leaves_no_reservation(d):
    controller = paper_controller(
        lambda node: Procedure3(node.link.capacity))
    session = call()
    assert_refused_cleanly(controller, session,
                           f"positive and finite, got {d}", d=d)
    controller.admit(session, d=ms(13.25))
    assert controller.procedures["n5"].delay_of("call") == ms(13.25)


def test_only_admission_errors_are_rewrapped():
    controller = paper_controller()
    with pytest.raises(ConfigurationError) as refused:
        controller.admit(call(), class_number=1, epsilon=-1.0)
    # Raised as the procedure raised it: no "rejected at node" wrapper.
    assert str(refused.value) == "epsilon must be non-negative, got -1.0"


def test_sanitizer_checks_only_the_route(monkeypatch):
    controller = paper_controller()
    checked = []

    class Recorder:
        def check_reservations(self, procedures, now=0.0):
            checked.append(dict(procedures))

    monkeypatch.setattr(controller.network, "sanitizer", Recorder())
    session = call(route=("n2", "n4"))
    controller.admit(session, class_number=1)
    controller.release(session)
    route = {name: controller.procedures[name] for name in ("n2", "n4")}
    assert checked == [route, route]
