"""Unit tests for the Packet object and its header semantics."""

from repro.net.packet import Packet
from repro.net.session import Session


def make_packet(**kw):
    session = Session("s", rate=100.0, route=["n1", "n2"], l_max=424.0)
    spec = dict(session=session, seq=1, length=424.0, entry_time=0.5)
    spec.update(kw)
    return Packet(**spec)


def test_initial_state():
    packet = make_packet()
    assert packet.hop_index == -1
    assert packet.holding_time == 0.0
    assert packet.entry_time == 0.5
    assert packet.session.id == "s"


def test_slots_prevent_arbitrary_attributes():
    packet = make_packet()
    try:
        packet.surprise = 1
    except AttributeError:
        return
    raise AssertionError("Packet should use __slots__")


def test_same_object_traverses_hops():
    # The header field semantics rely on identity: no copying.
    packet = make_packet()
    packet.holding_time = 0.123
    reference = packet
    reference.hop_index = 1
    assert packet.hop_index == 1
    assert packet.holding_time == 0.123
