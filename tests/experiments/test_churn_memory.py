"""Call churn holds memory for the live calls, not for every call made.

A torn-down call's source leaves the network, its ``onoff:call-N``
stream leaves the stream table, and refcounting frees the source the
moment the experiment lets go of it.  What stays per call attempt is
its ``CallRecord``.  Each reading is taken by a probe event near the
horizon — ``Network.run`` still alive, after ``gc.collect()`` — on the
ledger's call_churn cell (60 erlangs, 0.5 s mean holding).
"""

import gc
import tracemalloc
import weakref

from repro.experiments import call_churn
from repro.traffic.onoff import OnOffSource

#: Streams the cell holds whatever calls are up: call arrivals and
#: holding times.
FIXED_STREAMS = {"call-arrivals", "call-holding"}

#: Bytes a call attempt may leave behind once its call is over; a
#: ``CallRecord`` is about 220.  While a stopped source stayed in
#: ``Network.sources`` with its stream in the table it was 3 422.
HELD_PER_ATTEMPT_CEILING = 512


def _probed_cell(monkeypatch, duration, probe):
    """Run the cell with ``probe(network)`` scheduled 1 ms before the
    horizon; return the cell's result."""
    build = call_churn.build_paper_network

    def building(*args, **kwargs):
        network = build(*args, **kwargs)
        network.sim.schedule_at(duration - 0.001, probe, network)
        return network

    monkeypatch.setattr(call_churn, "build_paper_network", building)
    return call_churn.run(duration=duration, seed=0,
                          offered_erlangs=60.0, mean_holding=0.5)


def _live_at(result, instant):
    """Ids of the calls up at ``instant``, from the call records."""
    return {f"call-{call.call_id}" for call in result.calls
            if not call.blocked and call.arrived_at <= instant
            and (call.ended_at is None or call.ended_at > instant)}


def _reading(monkeypatch, duration):
    seen = {}

    def probe(network):
        gc.collect()
        seen["held"] = tracemalloc.get_traced_memory()[0]
        seen["now"] = network.sim.now
        seen["sources"] = [source.session.id for source in network.sources]
        seen["streams"] = set(network.streams._streams)

    tracemalloc.start()
    try:
        result = _probed_cell(monkeypatch, duration, probe)
    finally:
        tracemalloc.stop()
    live = _live_at(result, seen["now"])
    assert sorted(seen["sources"]) == sorted(live)
    assert seen["streams"] == FIXED_STREAMS | {f"onoff:{call_id}"
                                               for call_id in live}
    return seen["held"], result.attempts


def test_held_memory_grows_with_live_calls_not_attempts(monkeypatch):
    short_held, short_attempts = _reading(monkeypatch, 5.0)
    long_held, long_attempts = _reading(monkeypatch, 20.0)
    assert long_attempts - short_attempts > 1000
    per_attempt = ((long_held - short_held)
                   / (long_attempts - short_attempts))
    assert per_attempt <= HELD_PER_ATTEMPT_CEILING, (
        f"{per_attempt:.0f} bytes held per extra call attempt")


def test_a_stopped_source_dies_when_its_call_ends(monkeypatch):
    stopped = []
    stop = OnOffSource.stop

    def stopping(source):
        stop(source)
        stopped.append(weakref.ref(source))

    def probe(network):
        # Every call torn down so far: its ``_call_ends`` has returned.
        alive = [ref() for ref in stopped if ref() is not None]
        assert not alive, f"{len(alive)} stopped sources still alive"
        seen.append(len(stopped))

    seen = []
    monkeypatch.setattr(OnOffSource, "stop", stopping)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _probed_cell(monkeypatch, 3.0, probe)
    finally:
        if enabled:
            gc.enable()
    assert seen and seen[0] > 100

