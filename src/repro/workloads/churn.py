"""Synthetic churn traces for live-overlay experiments.

The paper's one-to-one scenario is a running P2P system; real
deployments churn. This module generates reproducible churn traces in
the style of P2P measurement studies: Poisson joins, exponential
session lengths (so departures follow the current population), and
rewiring. Traces drive the streaming-maintenance benchmarks and the
``live_overlay_churn`` example, and double as fuzzing input for the
:class:`~repro.streaming.DynamicKCore` property tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Literal

from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.utils.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.streaming import DynamicKCore, FlatDynamicKCore

__all__ = ["ChurnEvent", "ChurnTrace", "generate_churn_trace", "replay_trace"]

EventKind = Literal["join", "leave", "link", "unlink"]


@dataclass(frozen=True)
class ChurnEvent:
    """One timestamped overlay event."""

    time: float
    kind: EventKind
    #: ``join``: (new_node, contact...); ``leave``: (node,);
    #: ``link``/``unlink``: (u, v).
    nodes: tuple[int, ...]


@dataclass
class ChurnTrace:
    """A replayable sequence of churn events plus its seed graph."""

    initial: Graph
    events: list[ChurnEvent] = field(default_factory=list)

    def __iter__(self) -> Iterator[ChurnEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out


def generate_churn_trace(
    initial: Graph,
    duration: float = 100.0,
    join_rate: float = 0.5,
    mean_session: float = 60.0,
    rewire_rate: float = 0.3,
    contacts_per_join: int = 2,
    seed: int | None = 0,
) -> ChurnTrace:
    """Generate a churn trace over ``initial``.

    Joins arrive Poisson(``join_rate``); each alive peer leaves after an
    Exp(``mean_session``) lifetime; rewires (drop one link, add another)
    arrive Poisson(``rewire_rate``). All times are simulated seconds;
    the event list is sorted by time and fully determined by ``seed``.
    """
    if duration <= 0 or join_rate < 0 or rewire_rate < 0:
        raise ConfigurationError("invalid churn parameters")
    if mean_session <= 0 or contacts_per_join < 1:
        raise ConfigurationError("invalid churn parameters")
    rng = make_rng(seed)

    def exponential(rate: float) -> float:
        return rng.expovariate(rate) if rate > 0 else math.inf

    # simulate the overlay state so events stay valid when replayed
    state = initial.copy()
    next_id = (max(state.nodes()) + 1) if state.num_nodes else 0
    departures: list[tuple[float, int]] = [
        (exponential(1.0 / mean_session), u) for u in state.nodes()
    ]
    events: list[ChurnEvent] = []
    now = 0.0
    next_join = exponential(join_rate)
    next_rewire = exponential(rewire_rate)
    while True:
        next_leave = min(departures, default=(math.inf, -1))
        now = min(next_join, next_rewire, next_leave[0])
        if now > duration:
            break
        if now == next_join:
            population = sorted(state.nodes())
            contacts = tuple(
                rng.sample(
                    population, min(contacts_per_join, len(population))
                )
            )
            state.add_node(next_id)
            for contact in contacts:
                state.add_edge(next_id, contact, strict=False)
            events.append(ChurnEvent(now, "join", (next_id, *contacts)))
            departures.append(
                (now + exponential(1.0 / mean_session), next_id)
            )
            next_id += 1
            next_join = now + exponential(join_rate)
        elif now == next_leave[0]:
            departures.remove(next_leave)
            victim = next_leave[1]
            if state.has_node(victim) and state.num_nodes > 3:
                state.remove_node(victim)
                events.append(ChurnEvent(now, "leave", (victim,)))
            next_rewire = max(next_rewire, now)
        else:
            edges = sorted(state.edges())
            if edges and state.num_nodes >= 4:
                u, v = edges[rng.randrange(len(edges))]
                population = sorted(state.nodes())
                for _ in range(20):
                    a, b = rng.sample(population, 2)
                    if not state.has_edge(a, b):
                        state.remove_edge(u, v)
                        state.add_edge(a, b)
                        events.append(ChurnEvent(now, "unlink", (u, v)))
                        events.append(ChurnEvent(now, "link", (a, b)))
                        break
            next_rewire = now + exponential(rewire_rate)
    return ChurnTrace(initial=initial.copy(), events=events)


def _make_engine(engine, trace, telemetry):
    from repro.streaming import DynamicKCore, FlatDynamicKCore

    if engine == "flat":
        return FlatDynamicKCore(trace.initial, telemetry=telemetry)
    if isinstance(engine, str) and engine != "object":
        raise ConfigurationError(
            f"unknown replay engine {engine!r} (use 'object' or 'flat')"
        )
    # only a flat engine built here takes a tracer: the object oracle
    # records no spans, and a prebuilt engine keeps the one it was
    # built with
    oracle = engine is None or engine == "object"
    if telemetry is not None and telemetry is not False:
        raise ConfigurationError(
            f"option 'telemetry' has no meaning for "
            f"{'the object engine' if oracle else 'a prebuilt engine'}; "
            "only engine='flat' takes it"
        )
    return DynamicKCore(trace.initial) if oracle else engine


def replay_trace(
    trace: ChurnTrace,
    engine: "DynamicKCore | FlatDynamicKCore | str | None" = None,
    verify_every: int | None = None,
    *,
    batch_size: int = 1,
    telemetry=None,
) -> "DynamicKCore | FlatDynamicKCore":
    """Apply a trace to a maintenance engine (created if omitted).

    ``engine`` selects the implementation: ``"object"``/``None`` for the
    :class:`~repro.streaming.DynamicKCore` oracle, ``"flat"`` for the
    dynamic-CSR :class:`~repro.streaming.FlatDynamicKCore`, or an
    already-constructed engine of either kind. ``telemetry`` applies
    only to the flat engine built here; with any other engine it
    raises :class:`~repro.errors.ConfigurationError`.

    The returned engine's ``metrics`` dict surfaces maintenance cost —
    ``edits_applied``, ``dirty_nodes_total`` and the per-batch
    ``dirty_nodes_per_batch`` series (plus
    ``reconverge_rounds_per_batch`` and ``compactions``, always 0, on
    the flat engine) — validated against the telemetry registry before
    returning. Wall time per batch is a telemetry concern: pass
    ``telemetry=`` and read the ``churn.apply_batch`` spans.

    ``batch_size`` groups events into ``apply_events`` batches on the
    flat engine (the object oracle always replays per-event).
    ``verify_every`` cross-checks the maintained coreness against full
    recomputation every N events (slow; for tests). The flat engine is
    checked between batches only, so a ``verify_every`` below
    ``batch_size`` shrinks every batch to ``verify_every`` events; set
    it to ``batch_size`` to check after every batch as it is.
    """
    from repro.streaming import FlatDynamicKCore
    from repro.telemetry.registry import validate_extra

    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    engine = _make_engine(engine, trace, telemetry)

    def checkpoint(index: int) -> None:
        if verify_every and index % verify_every == 0:
            if not engine.verify():
                raise AssertionError(
                    f"maintained coreness diverged after event {index}"
                )

    if isinstance(engine, FlatDynamicKCore):
        events = trace.events
        step = batch_size if not verify_every else min(
            batch_size, verify_every
        )
        for at in range(0, len(events), step):
            engine.apply_events(events[at:at + step])
            checkpoint(at + step)
        validate_extra(engine.metrics, "replay_trace metrics")
        return engine

    for index, event in enumerate(trace.events, start=1):
        if event.kind == "join":
            new, *contacts = event.nodes
            engine.add_node(new)
            for contact in contacts:
                if engine.graph.has_node(contact):
                    engine.insert_edge(new, contact)
        elif event.kind == "leave":
            (victim,) = event.nodes
            if engine.graph.has_node(victim):
                engine.remove_node(victim)
        elif event.kind == "link":
            u, v = event.nodes
            if (
                engine.graph.has_node(u)
                and engine.graph.has_node(v)
                and not engine.graph.has_edge(u, v)
            ):
                engine.insert_edge(u, v)
        else:  # unlink
            u, v = event.nodes
            if engine.graph.has_edge(u, v):
                engine.delete_edge(u, v)
        checkpoint(index)
    validate_extra(engine.metrics, "replay_trace metrics")
    return engine
