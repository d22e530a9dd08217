"""Unit tests for sinks."""

import pytest

from repro.net.packet import Packet
from repro.net.session import Session
from repro.net.sink import Sink


def make_packet(entry_time, length=100.0, seq=1):
    session = Session("s", rate=100.0, route=["n1"], l_max=1000.0)
    return Packet(session, seq, length, entry_time)


def test_delay_statistics():
    sink = Sink("s")
    sink.receive(make_packet(0.0), 1.0)
    sink.receive(make_packet(1.0), 4.0)
    assert sink.received == 2
    assert sink.max_delay == pytest.approx(3.0)
    assert sink.min_delay == pytest.approx(1.0)
    assert sink.jitter == pytest.approx(2.0)


def test_samples_record_each_delay():
    sink = Sink("s")
    sink.receive(make_packet(2.0), 5.0)
    sink.receive(make_packet(4.0, seq=2), 4.5)
    assert sink.samples == [3.0, 0.5]


def test_keep_samples_false():
    sink = Sink("s", keep_samples=False)
    sink.receive(make_packet(0.0), 1.0)
    assert sink.samples is None
    assert sink.max_delay == 1.0


def test_empty_sink_defaults():
    sink = Sink("s")
    assert sink.max_delay == 0.0
    assert sink.min_delay == 0.0
    assert sink.jitter == 0.0


def test_bits_received_accumulates():
    sink = Sink("s")
    sink.receive(make_packet(0.0, length=424.0), 1.0)
    sink.receive(make_packet(0.0, length=424.0, seq=2), 2.0)
    assert sink.bits_received == 848.0
