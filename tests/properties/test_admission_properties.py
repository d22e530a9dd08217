"""Property-based tests for admission-control state invariants.

Random admit/release churn must leave each procedure in a state where
the paper's rules hold for *every* admitted session — i.e. the
procedures are not merely gatekeepers at admission time, their
bookkeeping stays consistent under arbitrary interleavings.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.admission.classes import DelayClass
from repro.admission.procedure1 import Procedure1
from repro.admission.procedure2 import Procedure2
from repro.admission.procedure3 import Procedure3, subsets_feasible
from repro.errors import AdmissionError
from repro.net.session import Session

CAPACITY = 1_000_000.0
CLASSES = [DelayClass(200_000.0, 0.002),
           DelayClass(600_000.0, 0.01),
           DelayClass(CAPACITY, 0.05)]

operations = st.lists(
    st.tuples(
        st.sampled_from(["admit", "release"]),
        st.integers(min_value=0, max_value=14),      # session slot
        st.integers(min_value=1, max_value=3),       # class number
        st.floats(min_value=1000.0, max_value=400_000.0),  # rate
    ),
    min_size=1, max_size=40)


def apply_churn(procedure, ops):
    live = {}
    for action, slot, class_number, rate in ops:
        session_id = f"s{slot}"
        if action == "admit" and session_id not in live:
            session = Session(session_id, rate=rate, route=["n1"],
                              l_max=424.0)
            try:
                procedure.admit(session, class_number=class_number)
            except AdmissionError:
                continue
            live[session_id] = (rate, class_number)
        elif action == "release" and session_id in live:
            procedure.release(session_id)
            del live[session_id]
    return live


class TestProcedure1Churn:
    @settings(max_examples=60, deadline=None)
    @given(ops=operations)
    def test_invariants_after_any_churn(self, ops):
        procedure = Procedure1(CAPACITY, CLASSES)
        live = apply_churn(procedure, ops)

        # Eq. 18: total reserved within capacity.
        total = sum(rate for rate, _ in live.values())
        assert procedure.reserved_rate == pytest.approx(total)
        assert total <= CAPACITY + 1e-6

        # Rule 1.1 nesting for every class prefix.
        for m in range(1, 4):
            prefix_rate = sum(rate for rate, cls in live.values()
                              if cls <= m)
            assert prefix_rate <= CLASSES[m - 1].limit_rate + 1e-6
            assert procedure.rate_in_classes_upto(m) == pytest.approx(
                prefix_rate)

        # Rule 1.2 base-delay budgets for classes 1..P-1.
        for m in range(1, 3):
            load = sum(424.0 / CAPACITY for _, cls in live.values()
                       if cls <= m)
            assert load <= CLASSES[m - 1].base_delay + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(ops=operations)
    def test_sums_are_correctly_rounded_whatever_the_order(self, ops):
        # fsum of the live set, exactly: admission order and the
        # releases in between leave no rounding residue behind.
        procedure = Procedure1(CAPACITY, CLASSES)
        live = apply_churn(procedure, ops)
        assert procedure.reserved_rate == math.fsum(
            rate for rate, _ in live.values())
        for m in range(1, 4):
            members = [rate for rate, cls in live.values() if cls <= m]
            assert procedure.rate_in_classes_upto(m) == math.fsum(members)
            assert procedure.transmission_load_upto(m) == math.fsum(
                [424.0 / CAPACITY] * len(members))

    @settings(max_examples=40, deadline=None)
    @given(ops=operations)
    def test_membership_matches_admitted(self, ops):
        procedure = Procedure1(CAPACITY, CLASSES)
        live = apply_churn(procedure, ops)
        assert procedure.admitted_count == len(live)
        for session_id in live:
            assert procedure.is_admitted(session_id)


class TestProcedure2Churn:
    @settings(max_examples=40, deadline=None)
    @given(ops=operations)
    def test_sigma_p_budget_never_violated(self, ops):
        procedure = Procedure2(CAPACITY, CLASSES)
        live = apply_churn(procedure, ops)
        total_load = len(live) * 424.0 / CAPACITY
        assert total_load <= CLASSES[-1].base_delay + 1e-12


class TestProcedure3Churn:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["admit", "release"]),
                  st.integers(min_value=0, max_value=7),
                  st.floats(min_value=0.001, max_value=0.1),
                  st.floats(min_value=1000.0, max_value=200_000.0)),
        min_size=1, max_size=25))
    def test_admitted_set_always_eq19_feasible(self, ops):
        procedure = Procedure3(CAPACITY, exhaustive_limit=8)
        live = {}
        for action, slot, d, rate in ops:
            session_id = f"s{slot}"
            if action == "admit" and session_id not in live:
                session = Session(session_id, rate=rate, route=["n1"],
                                  l_max=424.0)
                try:
                    procedure.admit(session, d=d)
                except AdmissionError:
                    continue
                live[session_id] = (rate, d)
            elif action == "release" and session_id in live:
                procedure.release(session_id)
                del live[session_id]
        entries = [(rate, 424.0, d) for rate, d in live.values()]
        if entries and len(entries) <= 8:
            assert subsets_feasible(entries, CAPACITY)
        assert procedure.reserved_rate == math.fsum(
            rate for rate, _ in live.values())
