"""Space-parallel simulation: one topology sharded, stepped in-process.

Measured slower than serial on every cell tried (``docs/parallel_kernel.md``
holds the verdict); what is left is the inline runner the ledger
benchmark's ``sim.parallel.*`` probe calls, plus the payload helpers its
workload digests are built from.

Conservative synchronization (chandy-misra style, but windowed): the
network graph is split into shards by
:func:`repro.net.topology.partition_network`; each shard runs the
ordinary fused kernel on its subgraph, and a packet crossing a shard
boundary becomes a timestamped :class:`PacketEnvelope` exchanged at
barrier instants.

Why it is safe
--------------
The *lookahead* of a cut edge ``u -> v`` is the propagation ``Γ`` of
``u``'s link: a packet that finishes transmission at local time ``s``
cannot affect ``v`` before ``s + Γ``.  With ``w = min Γ`` over all cut
edges, the runner places barriers at every multiple of ``w`` up to
the run horizon and alternates:

1. every shard runs ``sim.run(until=B, exclusive=True)`` — the
   *exclusive-horizon* kernel mode dispatches strictly before ``B`` and
   leaves events at exactly ``B`` queued;
2. the outboxes are exchanged.  An envelope emitted at ``s`` in the
   window ``[B - w, B)`` has arrival ``s + Γ >= B - w + w = B``, so it
   is always injected *before* the receiving shard has executed any
   event at or after ``B`` — never in its past.

After the last barrier each shard runs inclusively to the horizon; an
envelope emitted in that final stretch has arrival strictly beyond the
horizon (when the horizon is an exact multiple of ``w`` there *is* a
barrier at the horizon, which is why boundary arrivals landing exactly
on the horizon are still delivered).

Zero-lookahead edges (``Γ = 0``) grant no window at all; the
partitioner serially merges their endpoints.

Determinism
-----------
Envelopes are injected in sorted order — ``(arrival, sent_at, origin,
session, seq)`` — so the receiving kernel sees one deterministic
sequence regardless of shard count, and at :data:`PRIORITY_BOUNDARY` so
same-instant ties against local events resolve exactly as the serial
insertion order would have resolved them.  Every random stream is
name-keyed (:class:`~repro.sim.rng.RandomStreams`), so a node draws the
same coins whichever shard owns it.  The merged :func:`payload_digest`
over sink observables, node counters, and the instant-normalized trace
is bit-identical between a serial run and any shard count
(``tests/sim/test_space_parallel.py`` pins this).

Sharded-mode restrictions (all fail loud):

* ``Network.remove_session`` is unsupported (drain accounting needs a
  global view);
* the conservation-law sanitizer is unsupported (its balance checks
  are whole-network);
* every traffic source must expose ``.session`` so it can be placed on
  the shard owning the route's first node.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Sequence, \
    Tuple, TYPE_CHECKING

from repro.errors import ConfigurationError, SimulationError
from repro.sim.kernel import PRIORITY_NORMAL

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.net.node import ServerNode
    from repro.net.packet import Packet

__all__ = [
    "PRIORITY_BOUNDARY",
    "PacketEnvelope",
    "ShardContext",
    "ParallelRunResult",
    "carve_network",
    "shard_payload",
    "merge_payloads",
    "payload_digest",
    "run_serial",
    "run_sharded",
]

#: A network builder: returns a fresh, fully assembled network (nodes,
#: sessions, sources attached but not started, no fault injector, no
#: sanitizer).  Every shard calls it and then carves its own subgraph,
#: which keeps registration order — and with it every name-keyed RNG
#: stream — identical across shard counts.
NetworkBuilder = Callable[[], "Network"]

#: Priority of injected boundary arrivals.  In a serial run the
#: delivery event for an arrival at time ``A`` was *scheduled* at
#: ``A - Γ`` (transmission completion), which is earlier than any
#: competing same-instant local event can be scheduled — nothing on the
#: forwarding path looks further ahead than Γ — so at equal ``(time,
#: priority)`` the serial tie-break (insertion seq) dispatches the
#: arrival first.  Barrier injection necessarily assigns a *late* seq,
#: which would flip those ties (they are systematic, not measure-zero:
#: back-to-back packets through equal-capacity nodes make an upstream
#: arrival coincide exactly with the receiver's own ``tx_end``), so the
#: injected event instead carries a priority one notch below NORMAL.
#: The one remaining discrepancy is an event scheduled *more* than Γ
#: ahead tying with an arrival — source injections on exponential burst
#: grids — which is measure-zero; see docs/parallel_kernel.md.
PRIORITY_BOUNDARY = PRIORITY_NORMAL - 1


@dataclass(frozen=True, slots=True)
class PacketEnvelope:
    """A packet crossing a shard boundary, as plain data.

    Carries exactly the state that semantically travels between nodes:
    the identifying header (session, seq, length, entry time), the
    transmitter's hop index and the in-header holding time ``A`` (paper
    eq. 8-9).  Everything else on :class:`~repro.net.packet.Packet` is
    per-node scratch recomputed on arrival.

    ``arrival`` is absolute receiver time (``sent_at + Γ``); the sort
    key makes the injection order at a barrier total and independent of
    which shard produced which envelope first.
    """

    session_id: str
    seq: int
    length: float
    entry_time: float
    hop_index: int
    holding_time: float
    sent_at: float
    arrival: float
    origin: str

    @property
    def sort_key(self) -> Tuple[float, float, str, str, int]:
        return (self.arrival, self.sent_at, self.origin,
                self.session_id, self.seq)


class ShardContext:
    """One shard's view of a space-parallel run.

    Installed as ``network.shard`` by :func:`carve_network`; the
    forwarding path (``ServerNode._finish_transmission``) consults
    :meth:`intercept` before scheduling the propagation-delay delivery.
    """

    def __init__(self, network: "Network", index: int,
                 owner: Dict[str, int]) -> None:
        self.network = network
        self.index = index
        #: node name -> owning shard index, for the whole topology.
        self.owner = owner
        #: Envelopes produced since the last barrier exchange.
        self.outbox: List[PacketEnvelope] = []

    def intercept(self, node: "ServerNode", packet: "Packet") -> bool:
        """Divert ``packet`` if its next hop lives on another shard.

        Called at transmission *completion*, before the propagation
        delay is scheduled — Γ is the lookahead, so it must be consumed
        on the receiving shard's clock (the envelope is stamped with
        ``arrival = now + Γ``), not on this one's.

        Returns False for local next hops (and for final hops: the
        last route node *is* the transmitter, so its sink is local) and
        the caller schedules delivery normally.
        """
        session = packet.session
        hop = packet.hop_index
        if session.is_last_hop(hop):
            return False
        if self.owner[session.node_at(hop + 1)] == self.index:
            return False
        sim = node.sim
        gamma = node.link.propagation
        self.outbox.append(PacketEnvelope(
            session_id=session.id, seq=packet.seq, length=packet.length,
            entry_time=packet.entry_time, hop_index=hop,
            holding_time=packet.holding_time,
            sent_at=sim.now, arrival=sim.now + gamma, origin=node.name))
        return True

    def take_outbox(self) -> List[PacketEnvelope]:
        outbox = self.outbox
        self.outbox = []
        return outbox

    def inject_envelopes(self,
                         envelopes: Sequence[PacketEnvelope]) -> None:
        """Materialize boundary arrivals; ``envelopes`` must be sorted.

        Each envelope becomes a ``receive`` event of its next hop at its
        absolute arrival instant, at :data:`PRIORITY_BOUNDARY` — one
        notch below the NORMAL priority the transmitter would have used
        — to reproduce the serial tie order at same-instant local
        events (see the constant's docstring).  Downstream processing
        is the serial code path from the first delivered bit on.
        """
        from repro.net.packet import Packet

        network = self.network
        sim = network.sim
        for env in envelopes:
            session = network.sessions[env.session_id]
            packet = Packet(session, env.seq, env.length, env.entry_time)
            packet.hop_index = env.hop_index + 1
            packet.holding_time = env.holding_time
            packet.finish_time = env.sent_at
            node = network.nodes[session.route[packet.hop_index]]
            sim.schedule_at(env.arrival, node.receive, packet,
                            priority=PRIORITY_BOUNDARY)


@dataclass(frozen=True)
class ParallelRunResult:
    """Outcome of a :func:`run_serial` / :func:`run_sharded` run.

    ``digest`` hashes the merged observable payload (sinks, node
    counters, instant-normalized trace); ``events_dispatched`` is
    telemetry — it is *excluded* from the digest because barrier
    bookkeeping may legitimately differ from the serial schedule.
    """

    digest: str
    payload: Dict[str, Any]
    partition: Tuple[FrozenSet[str], ...]
    window: float
    mode: str
    events_dispatched: int
    shard_events: Tuple[int, ...]


# ----------------------------------------------------------------------
# Carving
# ----------------------------------------------------------------------
def carve_network(network: "Network",
                  partition: Sequence[FrozenSet[str]],
                  index: int) -> ShardContext:
    """Turn a fully built network into shard ``index`` of ``partition``
    (as :func:`~repro.net.topology.partition_network` returns it).

    Installs the :class:`ShardContext` (activating boundary
    interception) and detaches every traffic source whose session does
    not *enter* the network on this shard.  The full topology stays in
    place — remote nodes simply never see a packet — so session
    registration, scheduler state, and RNG stream naming are identical
    on every shard and to the serial run.
    """
    if network.sanitizer is not None:
        raise SimulationError(
            "the conservation-law sanitizer checks whole-network "
            "balances and cannot run on one shard; disable "
            "REPRO_SANITIZE/--sanitize for space-parallel runs")
    if network.shard is not None:
        raise SimulationError("network is already carved into a shard")
    owner = {name: i for i, part in enumerate(partition)
             for name in part}
    local_sources = []
    for source in network.sources:
        session = getattr(source, "session", None)
        if session is None:
            raise SimulationError(
                f"source {source!r} has no .session attribute; "
                f"space-parallel runs need it to place the source on "
                f"the shard owning the route's first node")
        if owner[session.route[0]] == index:
            local_sources.append(source)
    network.sources = local_sources
    context = ShardContext(network, index, owner)
    network.shard = context
    return context


def _start_sources(network: "Network") -> None:
    """The idempotent source start ``Network.run`` performs."""
    for source in network.sources:
        start = getattr(source, "start", None)
        if start is not None and not getattr(source, "started", False):
            start()


# ----------------------------------------------------------------------
# Observable payloads and digests
# ----------------------------------------------------------------------
def shard_payload(network: "Network",
                  owned: FrozenSet[str]) -> Dict[str, Any]:
    """Extract the observables this shard is authoritative for.

    Sinks belong to the shard owning the route's last node; node
    counters and fault accounting to the node's owner.  Trace records
    are all local by construction (remote nodes never process a packet
    on this shard).  A serial run is the degenerate case
    ``owned = all nodes``.
    """
    sinks: Dict[str, Any] = {}
    for session_id, sink in sorted(network.sinks.items()):
        session = network.sessions.get(session_id)
        if session is None or session.route[-1] not in owned:
            continue
        tally = sink.delay
        sinks[session_id] = {
            "received": sink.received,
            "bits": sink.bits_received,
            "count": tally.count,
            "min": tally.minimum,
            "max": tally.maximum,
            "mean": tally.mean,
        }
    nodes: Dict[str, Any] = {}
    for name in sorted(owned):
        node = network.nodes[name]
        nodes[name] = {
            "served": node.packets_served,
            "bits": node.bits_served,
            "busy": node.busy_time,
            "drops": dict(sorted(node.drops.items())),
            "peak": dict(sorted(node.buffer_peak.items())),
        }
    faults: Dict[str, Any] = {}
    injector = network.faults
    if injector is not None:
        for name, state in sorted(injector.states.items()):
            faults[name] = {"drops": dict(sorted(state.drops.items()))}
    trace = [
        (record.time,
         f"{record.time!r}|{record.category}|{record.node}|"
         f"{record.session}|{record.packet}|"
         f"{sorted(record.detail.items())!r}")
        for record in network.tracer.records]
    return {"sinks": sinks, "nodes": nodes, "faults": faults,
            "trace": trace}


def merge_payloads(payloads: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-shard payloads into one serial-comparable payload.

    Sink/node/fault maps are disjoint by ownership and merge by union;
    traces concatenate and sort by ``(time, line)`` — the line-level
    tie-break normalizes same-instant ordering, which is the one degree
    of freedom conservative synchronization does not preserve.
    """
    sinks: Dict[str, Any] = {}
    nodes: Dict[str, Any] = {}
    faults: Dict[str, Any] = {}
    trace: List[Tuple[float, str]] = []
    for payload in payloads:
        sinks.update(payload["sinks"])
        nodes.update(payload["nodes"])
        faults.update(payload["faults"])
        trace.extend((time, line) for time, line in payload["trace"])
    trace.sort()
    return {
        "sinks": dict(sorted(sinks.items())),
        "nodes": dict(sorted(nodes.items())),
        "faults": dict(sorted(faults.items())),
        "trace": [line for _, line in trace],
    }


def payload_digest(payload: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON form of a merged payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Barrier-window coordination
# ----------------------------------------------------------------------
def _barriers(duration: float, window: float) -> List[float]:
    """Barrier instants: every multiple of ``window`` up to ``duration``.

    Computed as ``k * window`` (not by accumulation) so every shard
    derives bit-identical barrier values.  When ``duration`` is an
    exact multiple there is a barrier *at* the horizon — required so
    boundary arrivals landing exactly on the horizon are delivered.
    """
    if not math.isfinite(window):
        return []
    barriers: List[float] = []
    k = 1
    while k * window <= duration:
        barriers.append(k * window)
        k += 1
    return barriers


def run_serial(builder: NetworkBuilder,
               duration: float) -> ParallelRunResult:
    """Reference run: the same build, unsharded, same payload/digest."""
    network = builder()
    network.run(duration)
    payload = merge_payloads(
        [shard_payload(network, frozenset(network.nodes))])
    events = network.sim.events_dispatched
    return ParallelRunResult(
        digest=payload_digest(payload), payload=payload,
        partition=(frozenset(network.nodes),), window=math.inf,
        mode="serial", events_dispatched=events, shard_events=(events,))


def run_sharded(builder: NetworkBuilder, duration: float, *,
                partitions: int,
                mode: str = "inline") -> ParallelRunResult:
    """Run one topology in ``partitions`` contiguous shards, stepped in
    this process, and merge the observables.

    ``mode`` is kept for its callers and takes ``"inline"`` only: the
    forked-process coordinator measured slower than serial on every
    cell and is gone (``docs/parallel_kernel.md``).

    ``partitions=1`` degenerates to :func:`run_serial` (one shard, no
    cut edges, nothing to exchange).
    """
    from repro.net.topology import cut_lookahead, partition_network

    if mode != "inline":
        raise ConfigurationError(
            f"mode must be 'inline', got {mode!r}: the process "
            f"coordinator was removed (see docs/parallel_kernel.md)")
    if duration <= 0:
        raise ConfigurationError(
            f"duration must be positive, got {duration}")
    probe = builder()
    partition = partition_network(probe, partitions)
    window = cut_lookahead(probe, partition)
    if len(partition) == 1:
        return run_serial(builder, duration)
    owner = {name: i for i, part in enumerate(partition)
             for name in part}
    contexts = []
    for index in range(partitions):
        network = builder()
        contexts.append(carve_network(network, partition, index))
        _start_sources(network)
    routes = {sid: tuple(session.route)
              for sid, session in contexts[0].network.sessions.items()}
    steps = [(barrier, True) for barrier in _barriers(duration, window)]
    steps.append((duration, False))
    inboxes: List[List[PacketEnvelope]] = [[] for _ in range(partitions)]
    for until, exclusive in steps:
        outboxes: List[List[PacketEnvelope]] = []
        for context, inbox in zip(contexts, inboxes):
            context.inject_envelopes(inbox)
            context.network.sim.run(until=until, exclusive=exclusive)
            outboxes.append(context.take_outbox())
        inboxes = _split_inboxes(outboxes, owner, routes, partitions)
    payload = merge_payloads([shard_payload(context.network, part)
                              for context, part in zip(contexts, partition)])
    shard_events = tuple(context.network.sim.events_dispatched
                         for context in contexts)
    return ParallelRunResult(
        digest=payload_digest(payload), payload=payload,
        partition=partition, window=window, mode=mode,
        events_dispatched=sum(shard_events), shard_events=shard_events)


def _split_inboxes(outboxes: Sequence[List[PacketEnvelope]],
                   owner: Dict[str, int],
                   routes: Dict[str, Tuple[str, ...]],
                   parts: int) -> List[List[PacketEnvelope]]:
    """Sort barrier traffic globally, then split per receiving shard."""
    merged = sorted((env for outbox in outboxes for env in outbox),
                    key=lambda env: env.sort_key)
    inboxes: List[List[PacketEnvelope]] = [[] for _ in range(parts)]
    for env in merged:
        receiver = owner[routes[env.session_id][env.hop_index + 1]]
        inboxes[receiver].append(env)
    return inboxes
