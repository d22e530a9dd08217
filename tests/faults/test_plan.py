"""FaultPlan validation."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.faults import FaultPlan, LinkDown, PacketLoss


def full_plan() -> FaultPlan:
    return FaultPlan(
        link_downs=[LinkDown("n1", 1.0, 2.0),
                    LinkDown("n1", 3.0, 4.0)],
        losses=[PacketLoss("n2", 0.0, 5.0, 0.25),
                PacketLoss("n3", 5.0, 6.0, 1.0)],
    )


def test_lists_coerced_to_tuples():
    plan = full_plan()
    assert isinstance(plan.link_downs, tuple)
    assert isinstance(plan.losses, tuple)
    assert not plan.is_empty


def test_empty_plan_is_empty():
    plan = FaultPlan()
    assert plan.is_empty
    assert plan.nodes_referenced() == ()


def test_referenced_targets():
    assert full_plan().nodes_referenced() == ("n1", "n2", "n3")


@pytest.mark.parametrize("bad", [
    lambda: LinkDown("n1", 2.0, 1.0),              # inverted window
    lambda: LinkDown("n1", 1.0, 1.0),              # empty window
    lambda: LinkDown("n1", -1.0, 1.0),             # negative time
    lambda: LinkDown("n1", float("nan"), 1.0),     # non-finite
    lambda: LinkDown("", 1.0, 2.0),                # empty node name
    lambda: LinkDown("n1", True, 2.0),             # a bool is no time
    lambda: PacketLoss("n1", 0.0, 1.0, 0.0),       # rate out of (0,1]
    lambda: PacketLoss("n1", 0.0, 1.0, 1.5),
    lambda: PacketLoss("n1", 0.0, 1.0, float("nan")),
    lambda: LinkDown("n1", 10 ** 400, 10 ** 401),  # int past float range
    lambda: PacketLoss(3, 0.0, 1.0, 0.5),          # node not a string
])
def test_spec_validation_rejects(bad):
    with pytest.raises(ConfigurationError):
        bad()


def test_overlapping_windows_same_target_rejected():
    with pytest.raises(ConfigurationError, match="overlapping"):
        FaultPlan(link_downs=[LinkDown("n1", 1.0, 3.0),
                              LinkDown("n1", 2.0, 4.0)])


def test_overlapping_windows_different_targets_allowed():
    plan = FaultPlan(link_downs=[LinkDown("n1", 1.0, 3.0),
                                 LinkDown("n2", 2.0, 4.0)])
    assert len(plan.link_downs) == 2


def test_wrong_entry_type_rejected():
    with pytest.raises(ConfigurationError):
        FaultPlan(link_downs=[PacketLoss("n1", 1.0, 2.0, 0.5)])


# ----------------------------------------------------------------------
# Fuzz: a plan or a ConfigurationError, nothing else
# ----------------------------------------------------------------------
ANY = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
       | st.lists(st.integers(), max_size=2))
TIME = st.floats(0.0, 100.0) | st.integers(0, 100)
NODE = st.sampled_from(["n1", "n2", "n3"])


def near_valid(valid):
    """Each field valid, or (one draw in four) any value at all."""
    return st.one_of(valid, valid, valid, ANY)


LINK_DOWN = st.builds(
    lambda node, at, until: (LinkDown, dict(node=node, down_at=at,
                                            up_at=until)),
    near_valid(NODE), near_valid(TIME), near_valid(TIME))
LOSS = st.builds(
    lambda node, at, until, rate: (PacketLoss, dict(
        node=node, start=at, stop=until, rate=rate)),
    near_valid(NODE), near_valid(TIME), near_valid(TIME),
    near_valid(st.floats(1e-3, 1.0)))


@settings(max_examples=300, deadline=None)
@given(specs=st.lists(LINK_DOWN | LOSS, max_size=4))
@example(specs=[(PacketLoss, dict(node="n1", start=0, stop=10 ** 400,
                                  rate=0.5))])
def test_construction_returns_a_plan_or_a_configuration_error(specs):
    try:
        built = [kind(**fields) for kind, fields in specs]
        plan = FaultPlan(
            link_downs=[s for s in built if isinstance(s, LinkDown)],
            losses=[s for s in built if isinstance(s, PacketLoss)])
    except ConfigurationError:
        return
    assert isinstance(plan, FaultPlan)
    assert len(plan.link_downs) + len(plan.losses) == len(specs)
