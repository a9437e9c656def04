"""Flat fast path for Algorithms 3-5 (``engine="flat"``).

Thin glue between the protocol-level API (:class:`OneToManyConfig`,
:class:`DecompositionResult`) and the sharded array engine in
:mod:`repro.sim.flat_many_engine`: build (or accept) an
:class:`~repro.core.assignment.Assignment`, shard the graph into a
:class:`~repro.graph.sharded.ShardedCSR`, run the
:class:`~repro.sim.flat_many_engine.FlatOneToManyEngine`, and package
the result with the same ``stats.extra`` keys as the object path
(``estimates_sent_total`` / ``estimates_sent_per_node`` / ``num_hosts``
/ ``cut_edges`` — all bit-identical per seed; the cut comes from the
shard build instead of an O(m) sweep over the object graph).

``use_worklist`` is accepted but does not select anything here: the
flat cascade is always a worklist, and the object engine's naive /
worklist variants compute the same fixpoint and changed set (asserted
by the test suite), so the knob is unobservable on this path. Generic
observers are rejected, as on the flat one-to-one path — fidelity
features stay on the object engine — but
:class:`~repro.sim.tracing.TraceRecorder` instances are fed through the
engine's array-diff recording path, and ``config.telemetry`` /
``config.trace_out`` enable span tracing (both pure observers).
"""

from __future__ import annotations

from repro.core.assignment import Assignment, assign
from repro.core.result import DecompositionResult
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.sharded import ShardedCSR
from repro.sim.flat_many_engine import FlatOneToManyEngine
from repro.sim.kernels import resolve_backend
from repro.sim.tracing import recorders_from_observers
from repro.telemetry import finish_run_telemetry, run_tracer

__all__ = ["run_one_to_many_flat", "shard_input", "export_one_to_many_extra"]


def shard_input(
    graph: "Graph | CSRGraph", config, assignment: "Assignment | None"
) -> "tuple[ShardedCSR, Assignment]":
    """Resolve the placement and partition the graph for a sharded run.

    A :class:`Graph` is placed by ``config.policy`` unless an explicit
    ``assignment`` is given; a prebuilt :class:`CSRGraph` requires one,
    since the placement policies are defined over the original node ids
    of a :class:`Graph`.
    """
    if isinstance(graph, CSRGraph):
        if assignment is None:
            raise ConfigurationError(
                "a prebuilt CSRGraph carries no placement policy input; "
                "pass an explicit assignment (from repro.core.assignment."
                "assign on the source Graph)"
            )
        csr = graph
    else:
        if assignment is None:
            # built *before* the engine touches the seed so a shared
            # Random instance is consumed in the same order as the
            # object path (assign first, then the activation shuffle)
            assignment = assign(
                graph, config.num_hosts, policy=config.policy,
                seed=config.seed,
            )
        csr = CSRGraph.from_graph(graph)
    return ShardedCSR(csr, assignment), assignment


def export_one_to_many_extra(stats, engine, sharded: ShardedCSR, policy) -> None:
    """The Figure-5 and partition keys every sharded engine exports.

    ``cut_edges_after_refine`` appears only when the placement came from
    ``policy="refined"``, mirroring the metric registry's source
    annotation.
    """
    estimates_sent = engine.estimates_sent_total()
    num_nodes = sharded.csr.num_nodes
    stats.extra["estimates_sent_total"] = estimates_sent
    stats.extra["estimates_sent_per_node"] = (
        estimates_sent / num_nodes if num_nodes else 0.0
    )
    stats.extra["num_hosts"] = sharded.num_hosts
    stats.extra["cut_edges"] = sharded.cut_edges
    if policy == "refined":
        stats.extra["cut_edges_after_refine"] = sharded.cut_edges


def run_one_to_many_flat(
    graph: "Graph | CSRGraph",
    config=None,
    assignment: Assignment | None = None,
) -> DecompositionResult:
    """Run Algorithms 3-5 through the sharded flat engine.

    Accepts a :class:`Graph` (converted and sharded internally) or a
    prebuilt :class:`CSRGraph` — the latter requires an explicit
    ``assignment``, since the placement policies are defined over the
    original node ids of a :class:`Graph`. Produces identical coreness
    and statistics to ``run_one_to_many(engine="round")`` under the
    same ``mode``, ``communication``, ``policy`` and ``seed``.

    >>> from repro.graph.generators import clique_graph
    >>> run_one_to_many_flat(clique_graph(4)).coreness
    {0: 3, 1: 3, 2: 3, 3: 3}
    """
    from repro.core.one_to_many import OneToManyConfig

    config = config or OneToManyConfig(engine="flat")
    # mode/communication/p2p_filter validation lives in the engine's
    # constructor (single source of the error messages); only the knobs
    # the engine never sees are checked here
    # generic observers are rejected; TraceRecorder instances pass
    # through to the engine's array-diff recording path
    recorders = recorders_from_observers(config.observers, "flat")
    tracer = run_tracer(config.telemetry, config.trace_out)
    # resolved here, in the config layer, so an unknown name or a
    # missing numpy fails before any shard work starts; both modes and
    # all communication policies accept both backends
    backend = resolve_backend(config.backend)
    sharded, assignment = shard_input(graph, config, assignment)

    max_rounds = config.max_rounds
    strict = config.strict
    if config.fixed_rounds is not None:
        max_rounds = config.fixed_rounds
        strict = False
    engine = FlatOneToManyEngine(
        sharded,
        communication=config.communication,
        mode=config.mode,
        seed=config.seed,
        p2p_filter=config.p2p_filter,
        max_rounds=max_rounds,
        strict=strict,
        backend=backend,
        telemetry=tracer,
        recorders=recorders,
    )
    stats = engine.run()
    export_one_to_many_extra(stats, engine, sharded, assignment.policy)
    finish_run_telemetry(tracer, config.trace_out, stats)
    return DecompositionResult(
        coreness=engine.coreness(),
        stats=stats,
        algorithm=(
            f"one-to-many/{config.communication}/{assignment.policy}-flat"
        ),
    )
