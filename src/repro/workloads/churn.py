"""Synthetic churn traces for live-overlay experiments.

The paper's one-to-one scenario is a running P2P system; real
deployments churn. This module generates reproducible churn traces in
the style of P2P measurement studies: Poisson joins, exponential
session lengths (so departures follow the current population), and
rewiring. Traces drive the streaming-maintenance benchmarks and the
``live_overlay_churn`` example, and double as fuzzing input for the
streaming tests. :func:`apply_event` is the one definition of an event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Literal

from repro.errors import ConfigurationError, GraphError
from repro.graph.graph import Graph
from repro.utils.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.streaming import DynamicKCore, FlatDynamicKCore

__all__ = ["ARITY", "ChurnEvent", "ChurnTrace", "apply_event",
           "generate_churn_trace", "replay_trace"]

EventKind = Literal["join", "leave", "link", "unlink"]

#: Each event kind and the node ids it carries: a join names its new
#: node and then any number of contacts.
ARITY = {"join": 1, "leave": 1, "link": 2, "unlink": 2}


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


def apply_event(target: Any, event: ChurnEvent) -> None:
    """Apply one churn event to ``target`` (the edit API of
    :class:`~repro.streaming.DynamicKCore`), which counts the edits.

    The one definition of a churn request: a join adds its new node (a
    present one raises :class:`~repro.errors.GraphError`) and links it
    to each present contact; a leave removes a present node; a link
    inserts an absent edge between present nodes; an unlink deletes a
    present edge; anything else is skipped. An unknown kind or a wrong
    number of ids raises :class:`~repro.errors.ConfigurationError`.
    """
    kind, nodes = event.kind, event.nodes
    if len(nodes) != ARITY.get(kind) and not (kind == "join" and nodes):
        raise ConfigurationError(
            f"churn event {kind!r} with nodes {nodes!r}: each kind names "
            f"{ARITY} node ids (a join: its new node, then any contacts)"
        )
    if kind == "join":
        new = nodes[0]
        if target.has_node(new):
            raise GraphError(f"node {new} already present")
        target.add_node(new)
        for contact in nodes[1:]:
            if target.has_node(contact):
                target.insert_edge(new, contact)
        return
    u, v = nodes[0], nodes[-1]
    if kind == "leave" and target.has_node(u):
        target.remove_node(u)
    elif kind == "link" and target.has_node(u) and target.has_node(v) \
            and not target.has_edge(u, v):
        target.insert_edge(u, v)
    elif kind == "unlink" and target.has_edge(u, v):
        target.delete_edge(u, v)


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

    Every event goes through :func:`apply_event`, the one definition
    of its guards: on the flat engine in ``apply_events`` batches of
    ``batch_size``, on the object oracle one event at a time.
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

    flat = isinstance(engine, FlatDynamicKCore)
    # the object oracle takes one event at a time
    step = min(batch_size, verify_every or batch_size) if flat else 1
    events = trace.events
    for at in range(0, len(events), step):
        if flat:
            engine.apply_events(events[at:at + step])
        else:
            apply_event(engine, events[at])
        index = at + step
        if verify_every and index % verify_every == 0 and not engine.verify():
            raise AssertionError(
                f"maintained coreness diverged after event {index}"
            )
    validate_extra(engine.metrics, "replay_trace metrics")
    return engine
