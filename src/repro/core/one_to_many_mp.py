"""Multi-process sharded path for Algorithms 3-5 (``engine="mp"``).

Thin glue between the protocol-level API (:class:`OneToManyConfig`,
:class:`DecompositionResult`) and the process-per-shard engine in
:mod:`repro.sim.mp_engine`: build (or accept) an
:class:`~repro.core.assignment.Assignment`, shard the graph into a
:class:`~repro.graph.sharded.ShardedCSR`, spawn one worker process per
:class:`~repro.graph.sharded.HostShard`, and package the result with
the same ``stats.extra`` keys as the object/flat paths plus the
mp-specific transport metrics (``pipe_bytes_total`` /
``pipe_bytes_per_round`` / ``shard_payload_bytes`` / ``workers`` /
``start_method`` / ``transport``, plus ``shm_bytes_total`` /
``shm_bytes_per_round`` when
``mp_transport="shm"`` moves the estimate hot path into shared-memory
mailbox rings).

Configuration contract (all rejections are loud, none silent):

* ``mode`` must be ``"lockstep"`` — peersim's immediate randomized
  delivery is inherently sequential across processes (the engine
  explains this in its error);
* generic ``observers`` are rejected (round-engine hooks cannot observe
  state that lives in other OS processes);
  :class:`~repro.sim.tracing.TraceRecorder` instances pass through —
  workers diff their owned estimate slice per round and the coordinator
  sums the shard aggregates, so the recorder sees the same snapshots as
  on the object engine;
* the *effective* host count (after resolving a precomputed
  ``assignment``) must be >= 2 — one process has nobody to message;
* a serialization-cost guard warns (``RuntimeWarning``) when the run is
  too small to amortize process startup + per-round pickling —
  correctness is unaffected (the replay is exact at any size), so the
  guard informs rather than rejects.

Fault tolerance rides on the same glue: ``config.checkpoint`` threads a
:class:`~repro.sim.checkpoint.CheckpointPolicy` into the engine (which
then also recovers lost workers in flight), a ``fault_plan`` keyword
injects scripted failures for tests/benchmarks, and
:func:`resume_from_checkpoint` restarts a whole fleet from a checkpoint
directory — the path for coordinator death, where no in-flight recovery
is possible. Recovery telemetry lands in ``stats.extra``
(``recoveries`` / ``checkpoint_bytes`` / ``resumed_from_round``).
"""

from __future__ import annotations

import pickle
import warnings

from repro.core.assignment import Assignment
from repro.core.one_to_many_flat import export_one_to_many_extra, shard_input
from repro.core.result import DecompositionResult
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.sim.checkpoint import CheckpointPolicy, load_checkpoint
from repro.sim.faults import FaultPlan
from repro.sim.mp_engine import MultiProcessOneToManyEngine
from repro.sim.tracing import recorders_from_observers
from repro.telemetry import finish_run_telemetry, run_tracer

__all__ = [
    "run_one_to_many_mp",
    "resume_from_checkpoint",
    "MP_SMALL_RUN_NODES_PER_WORKER",
]

#: Below this many owned nodes per worker the IPC bill (process spawn,
#: shard pickling, per-round batch serialization) dominates the actual
#: protocol work and the in-process flat engine is strictly better; the
#: runner emits a RuntimeWarning pointing there.
MP_SMALL_RUN_NODES_PER_WORKER = 512


def run_one_to_many_mp(
    graph: "Graph | CSRGraph",
    config=None,
    assignment: Assignment | None = None,
    fault_plan: "FaultPlan | None" = None,
) -> DecompositionResult:
    """Run Algorithms 3-5 with one OS process per host shard.

    Accepts a :class:`Graph` (converted and sharded internally) or a
    prebuilt :class:`CSRGraph` with an explicit ``assignment``, exactly
    like the flat runner. Produces identical coreness and statistics to
    ``run_one_to_many(engine="flat", mode="lockstep")`` — the
    per-process execution is an exact replay, just physically
    distributed.

    >>> from repro.graph.generators import clique_graph
    >>> import warnings
    >>> from repro.core.one_to_many import OneToManyConfig
    >>> with warnings.catch_warnings():
    ...     warnings.simplefilter("ignore")  # tiny demo graph
    ...     run_one_to_many_mp(
    ...         clique_graph(4),
    ...         OneToManyConfig(engine="mp", mode="lockstep", num_hosts=2),
    ...     ).coreness
    {0: 3, 1: 3, 2: 3, 3: 3}
    """
    from repro.core.one_to_many import OneToManyConfig

    config = config or OneToManyConfig(engine="mp", mode="lockstep")
    # generic observers are rejected; TraceRecorder instances pass
    # through — workers diff their owned slice and the coordinator sums
    # the shard aggregates at each barrier
    recorders = recorders_from_observers(config.observers, "mp")
    tracer = run_tracer(config.telemetry, config.trace_out, lane="coordinator")
    sharded, assignment = shard_input(graph, config, assignment)

    num_nodes = sharded.csr.num_nodes
    workers = assignment.num_hosts
    max_rounds = config.max_rounds
    strict = config.strict
    if config.fixed_rounds is not None:
        max_rounds = config.fixed_rounds
        strict = False
    algorithm = f"one-to-many/{config.communication}/{assignment.policy}-mp"
    engine = MultiProcessOneToManyEngine(
        sharded,
        communication=config.communication,
        mode=config.mode,
        seed=config.seed,
        p2p_filter=config.p2p_filter,
        max_rounds=max_rounds,
        strict=strict,
        backend=config.backend,
        start_method=config.mp_start_method or "spawn",
        transport=config.mp_transport or "queue",
        reply_timeout=config.mp_reply_timeout,
        checkpoint=config.checkpoint,
        fault_plan=fault_plan,
        telemetry=tracer,
        recorders=recorders,
    )
    # persisted into checkpoint manifests so a resumed run packages the
    # same label and placement keys without the original Graph or
    # Assignment
    engine.checkpoint_meta = {"algorithm": algorithm, "policy": assignment.policy}
    # the serialization-cost guard fires only once the configuration is
    # known-valid, so a warning never precedes a rejection
    if num_nodes < MP_SMALL_RUN_NODES_PER_WORKER * workers:
        warnings.warn(
            f"engine='mp' spawns {workers} OS processes for "
            f"{num_nodes} nodes ({num_nodes / workers:.0f} per worker); "
            "process startup and pipe serialization will dominate below "
            f"~{MP_SMALL_RUN_NODES_PER_WORKER} nodes/worker — results "
            "are identical either way, but engine='flat' is faster at "
            "this size",
            RuntimeWarning,
            stacklevel=2,
        )
    stats = engine.run()
    return _package(engine, stats, tracer, config.trace_out)


def _package(engine, stats, tracer, trace_out) -> DecompositionResult:
    """Result packaging shared by fresh and resumed fleets.

    The label and the placement policy come from
    ``engine.checkpoint_meta`` — the same fields a checkpoint manifest
    persists — so an interrupted-then-resumed run reports exactly the
    keys of an uninterrupted one. ``transport`` is always exported
    (which lane moved the estimates is part of what executed); the shm
    byte counters only when the shm transport ran, and the recovery
    keys whenever they could be nonzero.
    """
    sharded = engine.sharded
    meta = engine.checkpoint_meta
    export_one_to_many_extra(stats, engine, sharded, meta.get("policy"))
    stats.extra["workers"] = sharded.num_hosts
    stats.extra["start_method"] = engine.start_method
    stats.extra["pipe_bytes_total"] = engine.pipe_bytes_total
    stats.extra["pipe_bytes_per_round"] = list(engine.pipe_bytes_per_round)
    stats.extra["shard_payload_bytes"] = list(engine.shard_payload_bytes)
    stats.extra["transport"] = engine.transport
    if engine.transport == "shm":
        stats.extra["shm_bytes_total"] = engine.shm_bytes_total
        stats.extra["shm_bytes_per_round"] = list(engine.shm_bytes_per_round)
    if (
        engine.checkpoint is not None
        or engine.fault_plan is not None
        or engine.resilient
        or engine.resumed_from_round is not None
    ):
        stats.extra["recoveries"] = list(engine.recoveries)
        stats.extra["checkpoint_bytes"] = engine.checkpoint_bytes
        stats.extra["resumed_from_round"] = engine.resumed_from_round
    finish_run_telemetry(tracer, trace_out, stats)
    return DecompositionResult(
        coreness=engine.coreness(),
        stats=stats,
        algorithm=meta["algorithm"],
    )


def resume_from_checkpoint(
    dir: str,
    max_rounds: "int | None" = None,
    strict: "bool | None" = None,
    telemetry: object = None,
    trace_out: "str | None" = None,
) -> DecompositionResult:
    """Restart a whole mp fleet from the checkpoint committed in ``dir``.

    The recovery path for *coordinator* death (in-flight recovery only
    covers a lost worker): a fresh coordinator loads the verified
    checkpoint (:func:`repro.sim.checkpoint.load_checkpoint` — checksum
    + format-version enforced), rebuilds the fleet from the pickled
    :class:`~repro.graph.sharded.ShardedCSR`, restores every worker from
    its snapshot, and continues the lockstep loop from the checkpointed
    round. The completed run is bit-identical to one that was never
    interrupted: same coreness, rounds, per-round send counts and
    ``estimates_sent`` (cumulative counters are restored from the
    manifest, not reset).

    ``max_rounds`` / ``strict`` override the checkpointed values (the
    original run may have been truncated deliberately via
    ``fixed_rounds``); everything else — communication policy, backend,
    start method, checkpoint cadence (further checkpoints keep being
    written to ``dir``) — comes from the manifest. ``telemetry`` /
    ``trace_out`` trace the resumed portion of the run (spans are not
    checkpointed — they are observations, not protocol state).
    """
    ckpt = load_checkpoint(dir)
    cfg = ckpt.config
    tracer = run_tracer(telemetry, trace_out, lane="coordinator")
    sharded = pickle.loads(ckpt.fleet_blob)
    engine = MultiProcessOneToManyEngine(
        sharded,
        communication=cfg["communication"],
        mode="lockstep",
        p2p_filter=cfg["p2p_filter"],
        max_rounds=cfg["max_rounds"] if max_rounds is None else max_rounds,
        strict=cfg["strict"] if strict is None else strict,
        backend=cfg["backend"],
        start_method=cfg["start_method"],
        transport=cfg.get("transport", "queue"),
        checkpoint=CheckpointPolicy(
            every_n_rounds=cfg["checkpoint_every"], dir=dir
        ),
        telemetry=tracer,
    )
    # .get: manifests written before the policy was persisted resume
    # without the refined-cut gauge, as they always did
    engine.checkpoint_meta = {
        "algorithm": cfg["algorithm"], "policy": cfg.get("policy"),
    }
    engine._resume = ckpt
    stats = engine.run()
    return _package(engine, stats, tracer, trace_out)
