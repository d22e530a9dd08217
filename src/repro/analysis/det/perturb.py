"""The schedule-perturbation differ behind ``repro-analyze --perturb``.

The static rules prove structural properties; this module tests the
dynamic one they imply: a disciplined simulation's *observables* are
invariant under every reordering a sharded run may introduce.  A
scenario is run once unperturbed and then re-run under three
perturbations, diffing observables and a per-event trace:

* **tiebreak** — equal ``(time, priority)`` events dispatch in a
  seeded-shuffled order instead of insertion order.  Insertion order
  is deliberately *not* part of the determinism contract between
  shards: anything that leaks it into an observable is a hidden race.
* **registration** — sessions register in seeded-shuffled order.
  Random streams are named by stable session ids, so registration
  order must be invisible.
* **workers** — the same cells through
  :func:`repro.experiments.parallel.run_cells` with ``workers=1``
  versus ``workers=N``; results must be bit-identical (they are
  collected positionally, so any difference is real shard divergence).

Traces are normalized *within* each timestamp (same-instant records
sorted) before comparison: the perturbations legitimately permute
same-instant dispatch, and the contract is about everything else.  On
divergence the differ minimizes to the first differing event and
reports it by time/category/node/session/packet.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from types import MethodType
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.experiments.common import build_mix_network
from repro.experiments.parallel import Cell, run_cells
from repro.sim.kernel import PRIORITY_NORMAL, Simulator
from repro.sim.rng import RandomStreams
from repro.units import ms, seconds

__all__ = [
    "DEFAULT_MODES",
    "Divergence",
    "Fig07Scenario",
    "PerturbReport",
    "RunResult",
    "Scenario",
    "TiebreakShuffledSimulator",
    "perturb_scenario",
]

#: Perturbation modes in the order they run.
DEFAULT_MODES: Tuple[str, ...] = ("tiebreak", "registration", "workers")


class TiebreakShuffledSimulator(Simulator):
    """A kernel whose equal-priority tie-break order is shuffled by actor.

    The production kernel resolves equal ``(time, priority)`` events by
    insertion order (the monotone ``seq``).  This subclass puts ``(actor
    key, seq)`` in the heap entry's ``seq`` slot — one seeded
    key per object whose method is the callback, a bare function being
    an actor of its own — so ties *between* actors dispatch in another
    order through the unmodified ``run`` loops while one actor's events
    keep theirs: an arrival landing on the receiver's own completion
    goes first because it was sent first, which is store-and-forward.
    """

    __slots__ = ("_tiebreak_rng", "_actor_keys")

    def __init__(self, perturbation_seed: int = 1) -> None:
        super().__init__()
        self._tiebreak_rng = RandomStreams(perturbation_seed).stream(
            "tiebreak-perturbation")
        #: id(owner) -> (key, owner): kept, so that no id is reused.
        self._actor_keys: dict[int, Tuple[float, Any]] = {}

    def _push_shuffled(self, time: float, priority: int,
                       callback: Callable[..., Any],
                       args: Tuple[Any, ...]) -> list:
        seq = self._seq
        self._seq = seq + 1
        owner = (callback.__self__ if isinstance(callback, MethodType)
                 else callback)
        key, _ = self._actor_keys.setdefault(
            id(owner), (self._tiebreak_rng.random(), owner))
        event = [time, priority, (key, seq), callback, args]
        heapq.heappush(self._heap, event)
        return event

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any, priority: int = PRIORITY_NORMAL) -> list:
        if not delay >= 0:
            raise SimulationError(
                f"negative or NaN delay {delay!r} scheduling {callback!r}")
        return self._push_shuffled(self.now + delay, priority,
                                   callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any, priority: int = PRIORITY_NORMAL) -> list:
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, clock already at "
                f"{self.now!r}")
        return self._push_shuffled(time, priority, callback, args)


# ----------------------------------------------------------------------
# Run results and diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunResult:
    """One scenario execution: named observables + normalized trace."""

    observables: Tuple[Tuple[str, str], ...]
    trace: Tuple[str, ...]
    events: int = 0


def normalized_trace(records: Iterable[Any]) -> Tuple[str, ...]:
    """Trace lines with same-instant records sorted.

    Dispatch order within one timestamp is exactly what the
    perturbations permute on purpose; sorting inside each instant
    leaves every cross-instant ordering and every record's content
    fully significant.
    """
    lines: List[str] = []
    bucket: List[str] = []
    current: Optional[float] = None
    for record in records:
        if record.time != current:
            lines.extend(sorted(bucket))
            bucket = []
            current = record.time
        detail = sorted(record.detail.items())
        bucket.append(f"{record.time!r}|{record.category}|{record.node}"
                      f"|{record.session}|{record.packet}|{detail!r}")
    lines.extend(sorted(bucket))
    return tuple(lines)


@dataclass(frozen=True)
class Divergence:
    """One observed determinism violation, minimized to first evidence."""

    scenario: str
    mode: str
    detail: str
    #: (observable name, baseline value, perturbed value), when an
    #: observable differed.
    observable: Optional[Tuple[str, str, str]] = None
    #: (index, baseline line, perturbed line) of the first diverging
    #: trace event; a missing side reads ``"<absent>"``.
    first_event: Optional[Tuple[int, str, str]] = None

    def render(self) -> str:
        parts = [f"{self.scenario}: DIVERGED under {self.mode} "
                 f"({self.detail})"]
        if self.first_event is not None:
            index, base, pert = self.first_event
            parts.append(f"  first diverging event (#{index}):")
            parts.append(f"    baseline : {base}")
            parts.append(f"    perturbed: {pert}")
        if self.observable is not None:
            name, base, pert = self.observable
            parts.append(f"  observable {name}: {base} != {pert}")
        return "\n".join(parts)


def diff_runs(baseline: RunResult, perturbed: RunResult, *,
              scenario: str, mode: str,
              detail: str) -> Optional[Divergence]:
    """Compare two runs; None when they agree on every contract item."""
    first_event: Optional[Tuple[int, str, str]] = None
    for index, (base, pert) in enumerate(
            zip(baseline.trace, perturbed.trace)):
        if base != pert:
            first_event = (index, base, pert)
            break
    if first_event is None \
            and len(baseline.trace) != len(perturbed.trace):
        index = min(len(baseline.trace), len(perturbed.trace))
        longer = baseline.trace if len(baseline.trace) > index \
            else perturbed.trace
        base = longer[index] if longer is baseline.trace else "<absent>"
        pert = longer[index] if longer is perturbed.trace else "<absent>"
        first_event = (index, base, pert)
    observable: Optional[Tuple[str, str, str]] = None
    for (name, base_value), (_n, pert_value) in zip(
            baseline.observables, perturbed.observables):
        if base_value != pert_value:
            observable = (name, base_value, pert_value)
            break
    if first_event is None and observable is None:
        return None
    return Divergence(scenario=scenario, mode=mode, detail=detail,
                      observable=observable, first_event=first_event)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
class Scenario:
    """One perturbable workload.

    ``run`` executes it once — with an injected kernel and/or a
    shuffled registration order — and returns a :class:`RunResult`.
    ``cells`` (optional) exposes it as a >1-cell sweep for the
    ``workers`` mode; an empty list skips that mode.
    """

    name = "scenario"

    def run(self, *, sim: Optional[Simulator] = None,
            order_seed: Optional[int] = None,
            horizon: float = 0.25) -> RunResult:
        raise NotImplementedError

    def cells(self, horizon: float = 0.25) -> List[Cell]:
        return []


#: The fig07 target session mirrored here (importing the figure module
#: would drag matplotlib-adjacent report code into the analyzer path).
_FIG07_TARGET_SESSION = "a-j/1"

#: Two mid-sweep a_OFF points for the workers-mode mini sweep.
_FIG07_A_OFF_POINTS_S = (ms(88.0), ms(150.9))


def _mix_observables(network: Any, session_id: str
                     ) -> Tuple[Tuple[str, str], ...]:
    sink = network.sink(session_id)
    return (
        ("received", repr(sink.received)),
        ("bits_received", repr(sink.bits_received)),
        ("max_delay", repr(sink.max_delay)),
        ("min_delay", repr(sink.min_delay)),
        ("jitter", repr(sink.jitter)),
        ("mean_delay", repr(sink.delay.mean)),
        ("clock", repr(network.sim.now)),
    )


def _fig07_probe_cell(a_off: float, horizon: float
                      ) -> Tuple[Tuple[str, str], ...]:
    """One MIX cell for the workers mode (module-level: picklable);
    same schedule in every worker, so the event count is compared."""
    network = build_mix_network(a_off, seed=0)
    network.run(seconds(horizon))
    return _mix_observables(network, _FIG07_TARGET_SESSION) + (
        ("events_dispatched", repr(network.sim.events_dispatched)),)


class Fig07Scenario(Scenario):
    """A shortened Figure-7 MIX cell — the repo's canonical workload.

    The same cell the dispatch-digest gates pin, so a divergence here
    is directly comparable against the bit-identity tests.  ``events``
    is reported, not compared: whether a same-instant upstream
    completion finds the next hop busy decides park or event.
    """

    name = "fig07"

    def run(self, *, sim: Optional[Simulator] = None,
            order_seed: Optional[int] = None,
            horizon: float = 0.25) -> RunResult:
        network = build_mix_network(ms(88.0), seed=0, sim=sim,
                                    order_seed=order_seed)
        network.tracer.recording = True
        network.run(seconds(horizon))
        return RunResult(
            observables=_mix_observables(network, _FIG07_TARGET_SESSION),
            trace=normalized_trace(network.tracer.records),
            events=network.sim.events_dispatched)

    def cells(self, horizon: float = 0.25) -> List[Cell]:
        return [Cell(label=f"fig07-perturb/{a_off:.4f}",
                     fn=_fig07_probe_cell,
                     kwargs={"a_off": a_off, "horizon": horizon})
                for a_off in _FIG07_A_OFF_POINTS_S]


# ----------------------------------------------------------------------
# The differ
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PerturbReport:
    """All perturbation runs of one scenario, plus their verdict."""

    scenario: str
    modes: Tuple[str, ...]
    runs: int
    events: int
    divergences: Tuple[Divergence, ...]

    @property
    def deterministic(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        if self.deterministic:
            return (f"{self.scenario}: deterministic under "
                    f"{'/'.join(self.modes)} ({self.runs} runs, "
                    f"{self.events} events)")
        return "\n".join(d.render() for d in self.divergences)


def perturb_scenario(scenario: Scenario,
                     modes: Sequence[str] = DEFAULT_MODES, *,
                     horizon: float = 0.25,
                     workers: int = 4,
                     rounds: int = 2) -> PerturbReport:
    """Run ``scenario`` under each perturbation mode and diff.

    ``rounds`` seeds per single-run mode (tiebreak and registration);
    ``workers`` is the pool width of the workers mode.  One unperturbed
    baseline is shared by both single-run modes.
    """
    unknown = [mode for mode in modes if mode not in DEFAULT_MODES]
    if unknown:
        raise ValueError(f"unknown perturbation mode(s): {unknown}")
    divergences: List[Divergence] = []
    runs = 0
    events = 0
    baseline: Optional[RunResult] = None
    if "tiebreak" in modes or "registration" in modes:
        baseline = scenario.run(horizon=horizon)
        runs += 1
        events += baseline.events
    if "tiebreak" in modes and baseline is not None:
        for seed in range(1, rounds + 1):
            perturbed = scenario.run(
                sim=TiebreakShuffledSimulator(seed), horizon=horizon)
            runs += 1
            events += perturbed.events
            divergence = diff_runs(baseline, perturbed,
                                   scenario=scenario.name,
                                   mode="tiebreak",
                                   detail=f"perturbation seed {seed}")
            if divergence is not None:
                divergences.append(divergence)
    if "registration" in modes and baseline is not None:
        for seed in range(1, rounds + 1):
            perturbed = scenario.run(order_seed=seed, horizon=horizon)
            runs += 1
            events += perturbed.events
            divergence = diff_runs(baseline, perturbed,
                                   scenario=scenario.name,
                                   mode="registration",
                                   detail=f"order seed {seed}")
            if divergence is not None:
                divergences.append(divergence)
    if "workers" in modes:
        cells = scenario.cells(horizon=horizon)
        if len(cells) > 1:
            serial = run_cells(cells, workers=1)
            pooled = run_cells(cells, workers=workers)
            runs += 2 * len(cells)
            for cell, base, pert in zip(cells, serial, pooled):
                if repr(base) == repr(pert):
                    continue
                divergences.append(Divergence(
                    scenario=scenario.name, mode="workers",
                    detail=f"workers=1 vs workers={workers}, "
                           f"cell {cell.label!r}",
                    observable=("cell value", repr(base), repr(pert))))
    return PerturbReport(scenario=scenario.name, modes=tuple(modes),
                         runs=runs, events=events,
                         divergences=tuple(divergences))
