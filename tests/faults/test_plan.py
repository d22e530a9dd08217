"""FaultPlan validation and JSON round-tripping."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    PLAN_SCHEMA_VERSION,
    FaultPlan,
    LinkDown,
    NodePause,
    NodeRestart,
    PacketCorruption,
    PacketLoss,
    SessionOutage,
)


def full_plan() -> FaultPlan:
    return FaultPlan(
        link_downs=[LinkDown("n1", 1.0, 2.0),
                    LinkDown("n1", 3.0, 4.0,
                             on_recovery="drop_expired")],
        losses=[PacketLoss("n2", 0.0, 5.0, 0.25)],
        corruptions=[PacketCorruption("n2", 5.0, 6.0, 1.0)],
        node_pauses=[NodePause("n3", 1.5, 1.75)],
        node_restarts=[NodeRestart("n3", 2.5)],
        session_outages=[SessionOutage("s", 2.0, 4.0)],
        rng_namespace="chaos",
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
    assert plan.sessions_referenced() == ()


def test_referenced_targets():
    plan = full_plan()
    assert plan.nodes_referenced() == ("n1", "n2", "n3")
    assert plan.sessions_referenced() == ("s",)


def test_json_roundtrip_via_dict_and_string():
    plan = full_plan()
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert FaultPlan.from_json(plan.dumps()) == plan


def test_to_json_omits_empty_families():
    payload = FaultPlan().to_json()
    assert payload == {"schema": PLAN_SCHEMA_VERSION,
                       "rng_namespace": "faults"}


@pytest.mark.parametrize("bad", [
    lambda: LinkDown("n1", 2.0, 1.0),              # inverted window
    lambda: LinkDown("n1", 1.0, 1.0),              # empty window
    lambda: LinkDown("n1", -1.0, 1.0),             # negative time
    lambda: LinkDown("n1", float("nan"), 1.0),     # non-finite
    lambda: LinkDown("", 1.0, 2.0),                # empty node name
    lambda: LinkDown("n1", 1.0, 2.0, on_recovery="explode"),
    lambda: PacketLoss("n1", 0.0, 1.0, 0.0),       # rate out of (0,1]
    lambda: PacketLoss("n1", 0.0, 1.0, 1.5),
    lambda: PacketCorruption("n1", 0.0, 1.0, -0.1),
    lambda: NodeRestart("n1", -0.5),
    lambda: SessionOutage("s", 3.0, 2.0),
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
        FaultPlan(link_downs=[NodeRestart("n1", 1.0)])


def test_from_json_rejects_unknown_keys_and_schema():
    with pytest.raises(ConfigurationError, match="unknown keys"):
        FaultPlan.from_json({"schema": PLAN_SCHEMA_VERSION,
                             "link_down": []})
    with pytest.raises(ConfigurationError, match="schema"):
        FaultPlan.from_json({"schema": 99})
    with pytest.raises(ConfigurationError, match="bad entry"):
        FaultPlan.from_json({"schema": PLAN_SCHEMA_VERSION,
                             "losses": [{"node": "n1"}]})
    with pytest.raises(ConfigurationError, match="must be a list"):
        FaultPlan.from_json({"schema": PLAN_SCHEMA_VERSION,
                             "losses": {}})


@pytest.mark.parametrize("payload, complaint", [
    ('{"schema": 1,', "not JSON"),         # truncated text
    ("", "not JSON"),
    ({"schema": True}, "schema True"),     # True == 1
    ({"schema": 1.0}, "schema 1.0"),
    ('{"schema": "1"}', "schema '1'"),
], ids=["truncated", "empty", "bool", "float", "string"])
def test_from_json_rejects_malformed_text_and_non_int_schema(payload,
                                                             complaint):
    with pytest.raises(ConfigurationError, match=complaint):
        FaultPlan.from_json(payload)


def test_dumps_is_deterministic():
    assert full_plan().dumps() == full_plan().dumps()

