"""What one registered session holds, read where its run would start.

The heavy-traffic cell is one station carrying a session population
(the ledger's ``heavy_1e4``: 10^4 sessions, rho 0.95); its set-up
memory is per-session bookkeeping and nothing else.  ``tracemalloc``
counts the bytes Python still holds at ``Network.run`` entry, after
``gc.collect()``, divided by the sessions registered: a deterministic
twin of ``heavy_1e5``'s ``peak_rss_mb``, as the opcode ceilings in
``tests/net/test_hop_path_budget.py`` are of its hop.  ``make
hop-budget`` prints the reading by allocation site.
"""

import gc
import tracemalloc

from repro.experiments import heavy_traffic
from repro.net.network import Network

SESSIONS = 10_000

#: Bytes held per registered session at ``Network.run`` entry.  With a
#: 10^4-entry id -> sink dict beside the sessions, a free list holding
#: every never-issued slot and a list copy of the population in the
#: source it read 418.8; with the sink on the session, fresh slots from
#: a high-water mark and the population one tuple, 365.8; with columns
#: grown to exactly the slots issued instead of doubled, and no
#: slot -> session row list or per-node ``member``/``limit`` column,
#: 298.8.
HELD_PER_SESSION_CEILING = 305


class _Built(Exception):
    """Raised where ``Network.run`` would start: set-up is over."""


def _held_at_run(monkeypatch):
    """(bytes held, the snapshot, sessions registered) at ``Network.run``
    entry of the heavy cell."""
    seen = {}

    def stop(network, duration):
        gc.collect()
        seen["held"] = tracemalloc.get_traced_memory()[0]
        seen["snapshot"] = tracemalloc.take_snapshot()
        seen["sessions"] = len(network.sessions)
        raise _Built

    monkeypatch.setattr(Network, "run", stop)
    (cell,) = [cell for cell in heavy_traffic.cells(
        duration=1.0, seed=0, sessions=SESSIONS, rhos=(0.95,),
        topologies=("single",))
        if cell.kwargs["discipline"] == "leave-in-time"]
    gc.collect()
    tracemalloc.start()
    try:
        cell.fn(**cell.kwargs)
    except _Built:
        pass
    finally:
        tracemalloc.stop()
    return seen["held"], seen["snapshot"], seen["sessions"]


def _print_sites(snapshot, sessions, count=12):
    """The table ``make hop-budget`` shows: bytes per session by
    allocation site, heaviest first."""
    stats = snapshot.filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    ).statistics("lineno")
    print(f"\nheavy_1e4 set-up: bytes held per session at Network.run, "
          f"by allocation site")
    for stat in stats[:count]:
        frame = stat.traceback[0]
        path = frame.filename
        where = ("repro/" + path.rsplit("/repro/", 1)[1]
                 if "/repro/" in path else path.rsplit("/", 1)[-1])
        print(f"  {f'{where}:{frame.lineno}':<44}{stat.size / sessions:8.1f}"
              f"{stat.count / sessions:8.2f} blocks")


def test_held_bytes_per_registered_session(monkeypatch):
    held, snapshot, sessions = _held_at_run(monkeypatch)
    assert sessions == SESSIONS
    per_session = held / sessions
    _print_sites(snapshot, sessions)
    print(f"  {'total':<44}{per_session:8.1f}")
    assert per_session <= HELD_PER_SESSION_CEILING, (
        f"{per_session:.1f} bytes held per registered session at "
        f"Network.run entry of the heavy_1e4 cell; the committed ceiling "
        f"is {HELD_PER_SESSION_CEILING}")
