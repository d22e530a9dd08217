"""FaultPlan validation and JSON round-tripping."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.faults import (
    PLAN_SCHEMA_VERSION,
    FaultPlan,
    LinkDown,
    PacketLoss,
)


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


def test_json_roundtrip_via_dict_and_string():
    plan = full_plan()
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert FaultPlan.from_json(plan.dumps()) == plan


def test_to_json_omits_empty_families():
    assert FaultPlan().to_json() == {"schema": PLAN_SCHEMA_VERSION}


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
    ('{"schema": 2,', "not JSON"),         # truncated text
    ("", "not JSON"),
    ({"schema": True}, "schema True"),     # True == 1
    ({"schema": 2.0}, "schema 2.0"),
    ('{"schema": "2"}', "schema '2'"),
    ("[" * 100_000, "not JSON"),           # nested past the stack
], ids=["truncated", "empty", "bool", "float", "string", "deep"])
def test_from_json_rejects_malformed_text_and_non_int_schema(payload,
                                                             complaint):
    with pytest.raises(ConfigurationError, match=complaint):
        FaultPlan.from_json(payload)


@pytest.mark.parametrize("payload, key", [
    ({"schema": 1, "rng_namespace": "faults",
      "node_restarts": [{"node": "n1", "at": 1.0}]}, "node_restarts"),
    ({"schema": 1, "link_downs": [{"node": "n1", "down_at": 1.0,
                                   "up_at": 2.0,
                                   "on_recovery": "requeue"}]},
     "on_recovery"),
    ({"schema": 1, "corruptions": []}, "corruptions"),
    ({"schema": 1, "node_pauses": []}, "node_pauses"),
    ({"schema": 1, "session_outages": []}, "session_outages"),
    ({"schema": 1, "rng_namespace": "faults"}, "rng_namespace"),
], ids=["node_restarts", "on_recovery", "corruptions", "node_pauses",
        "session_outages", "rng_namespace"])
def test_a_schema_1_plan_is_told_which_key_was_retired(payload, key):
    """Schema 2 dropped the kinds no paper row used: a plan carrying one
    hears its name, not only that its schema number is old."""
    for form in (payload, json.dumps(payload)):
        with pytest.raises(ConfigurationError, match=key):
            FaultPlan.from_json(form)


def test_dumps_is_deterministic():
    assert full_plan().dumps() == full_plan().dumps()


# ----------------------------------------------------------------------
# Fuzz: a plan or a ConfigurationError, nothing else
# ----------------------------------------------------------------------
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=12)
TIME = st.floats(0.0, 100.0) | st.integers(0, 100)
NODE = st.sampled_from(["n1", "n2", "n3"])
LINK_DOWN = st.builds(
    lambda node, at, span: {"node": node, "down_at": at,
                            "up_at": at + span},
    NODE, TIME, st.floats(1e-3, 10.0))
LOSS = st.builds(
    lambda node, at, span, rate: {"node": node, "start": at,
                                  "stop": at + span, "rate": rate},
    NODE, TIME, st.floats(1e-3, 10.0), st.floats(1e-3, 1.0))
FIELDS = ["node", "down_at", "up_at", "start", "stop", "rate", "extra"]


@st.composite
def near_valid(draw, valid):
    """A valid value, or one with one key replaced, added or deleted."""
    value = dict(draw(valid))
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(sorted(value) + FIELDS))
        if draw(st.booleans()):
            value.pop(key, None)
        else:
            value[key] = draw(JSON)
    return value


PLAN_DICT = near_valid(st.fixed_dictionaries({
    "schema": st.just(PLAN_SCHEMA_VERSION),
    "link_downs": st.lists(near_valid(LINK_DOWN), max_size=2),
    "losses": st.lists(near_valid(LOSS), max_size=2)}))


@settings(max_examples=300, deadline=None)
@given(payload=JSON | PLAN_DICT, as_text=st.booleans())
# An int past float range once escaped ``math.isfinite`` as OverflowError.
@example(payload={"schema": PLAN_SCHEMA_VERSION, "losses": [
    {"node": "n1", "start": 0, "stop": 10 ** 400, "rate": 0.5}]},
    as_text=True)
def test_from_json_returns_a_plan_or_a_configuration_error(payload,
                                                           as_text):
    if as_text:
        payload = json.dumps(payload)
    try:
        plan = FaultPlan.from_json(payload)
    except ConfigurationError:
        return
    assert isinstance(plan, FaultPlan)
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert FaultPlan.from_json(plan.dumps()) == plan
