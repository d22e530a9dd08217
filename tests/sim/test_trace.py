"""Unit tests for the tracer."""

from repro.sim.trace import Tracer


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    tracer.emit(1.0, "arrival", node="n1")
    assert tracer.records == []


def test_enabled_tracer_records_fields():
    tracer = Tracer(enabled=True)
    tracer.emit(1.0, "arrival", node="n1", session="s", packet=3,
                deadline=2.5)
    record = tracer.records[0]
    assert record.time == 1.0
    assert record.category == "arrival"
    assert record.node == "n1"
    assert record.session == "s"
    assert record.packet == 3
    assert record.detail == {"deadline": 2.5}


def test_filter_by_category_node_session():
    tracer = Tracer(enabled=True)
    tracer.emit(1.0, "arrival", node="n1", session="a")
    tracer.emit(2.0, "arrival", node="n2", session="a")
    tracer.emit(3.0, "tx_end", node="n1", session="b")
    assert len(list(tracer.filter("arrival"))) == 2
    assert len(list(tracer.filter("arrival", node="n1"))) == 1
    assert len(list(tracer.filter(session="b"))) == 1
    assert len(list(tracer.filter())) == 3


def test_clear_drops_records():
    tracer = Tracer(enabled=True)
    tracer.emit(1.0, "x")
    tracer.clear()
    assert tracer.records == []


def test_records_come_back_in_time_order_whatever_order_they_went_in():
    """A parked arrival is traced when it is taken in, with its own
    instant: same-instant records keep their emission order."""
    tracer = Tracer(enabled=True)
    for time, tag in [(1.0, "a"), (3.0, "b"), (2.0, "c"), (3.0, "d"),
                      (2.0, "e"), (0.5, "f")]:
        tracer.emit(time, tag)
    assert [(r.time, r.category) for r in tracer.records] == [
        (0.5, "f"), (1.0, "a"), (2.0, "c"), (2.0, "e"), (3.0, "b"),
        (3.0, "d")]
    assert [r.category for r in tracer.filter()] == list("facebd")
    tracer.emit(2.5, "g")
    assert [r.category for r in tracer.records] == list("facegbd")
    assert tracer.count("g") == 1


def _collector(seen):
    def consume(time, category, node="", session="", packet=-1, **detail):
        seen.append((time, category, node, session, packet, detail))
    return consume


def test_an_attached_consumer_sees_every_record_without_recording():
    seen = []
    tracer = Tracer()
    assert not tracer.enabled
    tracer.attach(_collector(seen))
    assert tracer.enabled and not tracer.recording
    tracer.emit(1.0, "arrival", "n1", "s", 3)
    tracer.emit(2.0, "deadline", node="n1", deadline=2.5, k=2.0)
    assert seen == [(1.0, "arrival", "n1", "s", 3, {}),
                    (2.0, "deadline", "n1", "", -1,
                     {"deadline": 2.5, "k": 2.0})]
    assert tracer.records == []


def test_turning_recording_off_does_not_blind_the_consumer():
    seen = []
    tracer = Tracer(True)
    tracer.attach(_collector(seen))
    tracer.emit(1.0, "deadline", "n1", deadline=2.5, k=2.0)
    assert seen == [(1.0, "deadline", "n1", "", -1,
                     {"deadline": 2.5, "k": 2.0})]
    assert tracer.count("deadline") == 1
    tracer.recording = False
    assert tracer.enabled
    tracer.emit(2.0, "tx_end", "n1")
    assert len(seen) == 2 and tracer.count() == 1
    tracer.recording = True
    tracer.emit(3.0, "tx_end", "n1")
    assert len(seen) == 3 and tracer.count("tx_end") == 1


def test_recording_alone_turns_the_sites_on_and_off():
    tracer = Tracer()
    tracer.recording = True
    assert tracer.enabled
    tracer.emit(1.0, "arrival")
    tracer.recording = False
    assert not tracer.enabled
    assert tracer.count("arrival") == 1
