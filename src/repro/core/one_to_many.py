"""Algorithms 3-5 — the one-host-many-nodes protocol (Section 3.2).

A host ``x`` runs the node protocol on behalf of all nodes in ``V(x)``.
The crucial optimisation is the *internal cascade* (``improveEstimate``,
Algorithm 4): whenever external estimates arrive, all of their intra-host
consequences are computed locally, to fixpoint, before anything is sent
out — so only settled estimates cross the network.

Communication policies (Section 3.2.1):

* ``"broadcast"`` (Algorithm 3): a broadcast medium is available; each
  round the host emits *one* set ``S`` with every estimate changed since
  the last round. The Figure-5 overhead metric counts each estimate in
  ``S`` once, regardless of how many hosts hear the broadcast.
* ``"p2p"`` (Algorithm 5): point-to-point links; each neighbouring host
  ``y`` receives only the changed estimates of nodes that actually have
  a neighbour inside ``V(y)``, and the overhead counts one unit per
  (estimate, destination) pair. (As printed in the paper, Algorithm 5
  omits the ``changed[u]`` filter its round block clearly intends —
  without it no run could ever terminate; we apply the filter.)

The overhead figure of merit — "the average number of times a node
generates a new estimate that has to be sent to another host" — is
reported as ``stats.extra["estimates_sent_per_node"]``.
"""

from __future__ import annotations

import pickle
import warnings
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.assignment import Assignment, assign
from repro.core.compute_index import (
    improve_estimate_naive,
    improve_estimate_worklist,
)
from repro.core.paths import run
from repro.core.result import DecompositionResult
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.sharded import ShardedCSR
from repro.sim.checkpoint import CheckpointPolicy, load_checkpoint
from repro.sim.engine import Observer, RoundEngine
from repro.sim.faults import FaultPlan
from repro.sim.kernels import resolve_backend
from repro.sim.node import Context, Message, Process
from repro.telemetry import finish_run_telemetry, run_tracer

__all__ = [
    "KCoreHost",
    "OneToManyConfig",
    "run_one_to_many",
    "build_host_processes",
    "resume_from_checkpoint",
    "MP_SMALL_RUN_NODES_PER_WORKER",
]

#: Integer stand-in for the paper's +∞ estimate (any value > max degree works).
INFINITY_INT = 2**62


class KCoreHost(Process):
    """A host responsible for the nodes ``V(x)`` (Algorithm 3).

    State:

    * :attr:`est` — estimates for every node in ``V(x) ∪ neighborV(x)``
      (the paper deliberately stores both in one array);
    * :attr:`changed` — owned nodes whose estimate changed since the
      last transmission;
    * :attr:`estimates_sent` — Figure 5's overhead numerator.
    """

    __slots__ = (
        "owned",
        "adjacency",
        "est",
        "changed",
        "neighbor_hosts",
        "border",
        "external_watchers",
        "communication",
        "use_worklist",
        "estimates_sent",
    )

    def __init__(
        self,
        pid: int,
        owned: Sequence[int],
        adjacency: dict[int, tuple[int, ...]],
        host_of: dict[int, int],
        communication: str = "broadcast",
        use_worklist: bool = True,
    ) -> None:
        super().__init__(pid)
        self.owned: tuple[int, ...] = tuple(owned)
        self.adjacency = adjacency
        self.communication = communication
        self.use_worklist = use_worklist
        self.est: dict[int, int] = {}
        self.changed: set[int] = set()
        self.estimates_sent = 0

        owned_set = set(self.owned)
        # neighborH(x): hosts owning at least one neighbour of V(x)
        self.neighbor_hosts: tuple[int, ...] = tuple(
            sorted(
                {
                    host_of[v]
                    for u in self.owned
                    for v in adjacency[u]
                    if host_of[v] != pid
                }
            )
        )
        # border[y]: owned nodes with a neighbour on host y (Algorithm 5)
        border: dict[int, set[int]] = {y: set() for y in self.neighbor_hosts}
        # external_watchers[v]: owned nodes adjacent to external node v
        watchers: dict[int, list[int]] = {}
        for u in self.owned:
            for v in adjacency[u]:
                if v not in owned_set:
                    border[host_of[v]].add(u)
                    watchers.setdefault(v, []).append(u)
        self.border: dict[int, frozenset[int]] = {
            y: frozenset(nodes) for y, nodes in border.items()
        }
        self.external_watchers: dict[int, tuple[int, ...]] = {
            v: tuple(us) for v, us in watchers.items()
        }

    # ------------------------------------------------------------------
    def _improve(self, dirty: Sequence[int] | None) -> None:
        if self.use_worklist:
            improve_estimate_worklist(
                self.est, self.owned, self.adjacency, self.changed, dirty=dirty
            )
        else:
            improve_estimate_naive(
                self.est, self.owned, self.adjacency, self.changed
            )

    def _emit(self, ctx: Context, updates: list[tuple[int, int]]) -> None:
        """Send ``updates`` according to the communication policy."""
        if not updates or not self.neighbor_hosts:
            # nothing "has to be sent to another host" (Figure-5 metric)
            return
        if self.communication == "broadcast":
            # one transmission; every estimate counted once (Figure 5 left)
            self.estimates_sent += len(updates)
            for y in self.neighbor_hosts:
                ctx.send(y, updates)
        else:  # point-to-point, Algorithm 5
            for y in self.neighbor_hosts:
                subset = [
                    (u, k) for u, k in updates if u in self.border[y]
                ]
                if subset:
                    self.estimates_sent += len(subset)
                    ctx.send(y, subset)

    # ------------------------------------------------------------------
    def on_init(self, ctx: Context) -> None:
        """Algorithm 3 initialisation: degrees in, cascade, full send."""
        owned_set = set(self.owned)
        self.est = {}
        for u in self.owned:
            for v in self.adjacency[u]:
                if v not in owned_set:
                    self.est[v] = INFINITY_INT
        for u in self.owned:
            self.est[u] = len(self.adjacency[u])
        self.changed = set()
        self.estimates_sent = 0
        self._improve(dirty=None)
        # the initial message carries *all* owned estimates
        self._emit(ctx, [(u, self.est[u]) for u in self.owned])
        self.changed.clear()

    def on_messages(self, ctx: Context, messages: Sequence[Message]) -> None:
        """Fold received estimate sets; cascade locally (Algorithm 3)."""
        dirty: set[int] = set()
        for _sender, payload in messages:
            for v, k in payload:  # type: ignore[misc]
                # hosts only broadcast their own nodes, so v is external;
                # entries outside V(x) ∪ neighborV(x) are ignored
                current = self.est.get(v)
                if current is not None and k < current:
                    self.est[v] = k
                    dirty.update(self.external_watchers.get(v, ()))
        if dirty:
            self._improve(dirty=sorted(dirty))

    def on_round(self, ctx: Context) -> None:
        """Periodic block: transmit estimates changed since last round."""
        if not self.changed:
            return
        updates = [(u, self.est[u]) for u in sorted(self.changed)]
        self._emit(ctx, updates)
        self.changed.clear()

    def is_quiescent(self) -> bool:
        return not self.changed


@dataclass
class OneToManyConfig:
    """Configuration for :func:`run_one_to_many`.

    ``num_hosts``, the assignment ``policy`` (Section 3.2.2, default the
    paper's modulo) and the ``communication`` policy (Section 3.2.1)
    select the scenario; the rest mirrors :class:`OneToOneConfig`.
    """

    num_hosts: int = 4
    policy: str = "modulo"
    communication: str = "broadcast"
    mode: str = "peersim"
    #: ``"round"`` (default), ``"flat"``, ``"mp"`` or ``"async"``;
    #: which fields each engine takes is one row of
    #: :mod:`repro.core.paths`. ``"flat"`` runs the sharded CSR fast
    #: path — an exact replay of the round engine (identical coreness,
    #: rounds, message counts and ``estimates_sent`` per seed), just
    #: faster; it rejects ``observers``. ``"mp"`` spawns one OS
    #: process per host shard with host-to-host batches
    #: over real pipes — an exact replay of the flat lockstep path; it
    #: requires ``mode="lockstep"`` and >= 2 hosts and rejects
    #: ``observers``. ``"async"`` runs the host processes under
    #: arbitrary per-message latencies; it has no rounds, so combining
    #: it with ``fixed_rounds``, ``mode="lockstep"`` or ``observers``
    #: raises :class:`ConfigurationError`.
    engine: str = "round"
    #: Kernel backend for ``engine="flat"`` / ``engine="mp"`` (see
    #: :mod:`repro.sim.kernels`): ``"stdlib"`` (canonical, default) or
    #: ``"numpy"`` (vectorised, optional install). Both activation
    #: modes and all communication policies accept either backend with
    #: bit-identical results (the mp engine resolves it per worker
    #: process); a non-default backend on the object engines raises
    #: :class:`ConfigurationError`.
    backend: str = "stdlib"
    #: ``multiprocessing`` start method for ``engine="mp"`` (``None``
    #: means ``"spawn"`` — portable, and what a real fresh-interpreter
    #: deployment resembles; ``"fork"``/``"forkserver"`` start much
    #: faster on POSIX with identical results). Setting it on any other
    #: engine raises :class:`ConfigurationError` — nothing else spawns.
    mp_start_method: str | None = None
    #: Seconds the ``engine="mp"`` coordinator waits for any single
    #: worker's round report before its failure detector fires
    #: (``None`` derives a round-aware default from the per-worker load:
    #: :func:`repro.sim.mp_engine.default_reply_timeout`). Raise it for
    #: graphs whose per-round fold/cascade legitimately exceeds the
    #: derived value on slow machines; like ``mp_start_method``, it is
    #: rejected on every other engine.
    mp_reply_timeout: float | None = None
    #: Estimate transport for ``engine="mp"`` (``None`` means
    #: ``"queue"`` — per-worker ``multiprocessing.Queue`` inboxes with
    #: pickled batches). ``"shm"`` moves the estimate hot path into
    #: per-worker mailbox rings in ``multiprocessing.shared_memory``
    #: segments sized from the partition's cut structure
    #: (:mod:`repro.sim.shm_transport`): zero pickling per round; ring
    #: capacities are exact, so a batch that outgrows its ring is a bug
    #: and raises ``SimulationError``. Results are bit-identical across
    #: transports; like the other ``mp_*`` knobs, rejected on every
    #: other engine.
    mp_transport: str | None = None
    #: Fault tolerance for ``engine="mp"``: a
    #: :class:`~repro.sim.checkpoint.CheckpointPolicy` makes the fleet
    #: snapshot worker state + in-flight mail every N rounds to an
    #: atomic, checksummed on-disk checkpoint, and enables in-flight
    #: recovery of a lost worker (respawn from the last checkpoint +
    #: deterministic replay). ``None`` (default) runs without snapshots.
    #: Like the other ``mp_*`` knobs, rejected on every other engine —
    #: the in-process engines cannot lose a worker.
    checkpoint: CheckpointPolicy | None = None
    seed: int | None = 0
    max_rounds: int = 1_000_000
    strict: bool = True
    fixed_rounds: int | None = None
    #: ``False`` runs the object hosts' cascade as the paper-verbatim
    #: full sweep (same fixpoint, more recompute); the flat and mp rows,
    #: whose cascade is always a worklist, reject it.
    use_worklist: bool = True
    #: ``observer(round_number, engine)`` callables run after every
    #: round of ``engine="round"``, such as
    #: :class:`~repro.sim.tracing.TraceRecorder` (which reads each
    #: host's owned estimates). Only that engine takes them; the flat
    #: and mp engines replay it round for round, so its trace is also
    #: theirs.
    observers: Sequence[Observer] = field(default_factory=tuple)
    #: ``True``/``False`` or a :class:`repro.telemetry.Tracer`; when
    #: enabled, the run is bracketed in spans — rounds on every engine,
    #: kernel phases on ``engine="flat"``, and on ``engine="mp"`` a
    #: full fleet timeline (coordinator lane + one lane per worker:
    #: queue waits, fold/cascade, serialization, barrier skew,
    #: checkpoint and recovery spans, shipped over the control pipes at
    #: gather time). A pure observer: results are bit-identical with
    #: tracing on or off. Rejected under ``engine="async"`` (no rounds
    #: to bracket).
    telemetry: object = None
    #: Path for the collected trace — Chrome trace-event JSON (loadable
    #: in Perfetto / ``chrome://tracing``; one lane per process), or
    #: JSON Lines when the path ends in ``.jsonl``. Implies
    #: ``telemetry=True``.
    trace_out: str | None = None


def build_host_processes(
    graph: Graph,
    assignment: Assignment,
    communication: str = "broadcast",
    use_worklist: bool = True,
) -> dict[int, KCoreHost]:
    """Instantiate one :class:`KCoreHost` per host of ``assignment``."""
    if communication not in ("broadcast", "p2p"):
        raise ConfigurationError(
            f"unknown communication policy {communication!r}; "
            "options: ['broadcast', 'p2p']"
        )
    adjacency_of = {
        u: graph.sorted_neighbors(u) for u in graph.nodes()
    }
    processes: dict[int, KCoreHost] = {}
    for host in range(assignment.num_hosts):
        owned = assignment.owned[host]
        processes[host] = KCoreHost(
            pid=host,
            owned=owned,
            adjacency={u: adjacency_of[u] for u in owned},
            host_of=assignment.host_of,
            communication=communication,
            use_worklist=use_worklist,
        )
    return processes


def run_one_to_many(
    graph: "Graph | CSRGraph",
    config: OneToManyConfig | None = None,
    assignment: Assignment | None = None,
    fault_plan: "FaultPlan | None" = None,
) -> DecompositionResult:
    """Run Algorithms 3-5 over ``graph`` distributed on hosts.

    Returns the same coreness as the one-to-one protocol; the
    interesting output is ``stats``: rounds, engine-level messages, and
    ``stats.extra["estimates_sent_per_node"]`` — the Figure-5 overhead.

    ``config.engine`` and ``config.mode`` select a row of the table of
    execution paths (:mod:`repro.core.paths`), which rejects every field
    that row does not take. ``assignment`` reuses a placement (it
    overrides ``num_hosts``/``policy``); the flat and mp rows also accept
    a prebuilt :class:`CSRGraph` with one. ``fault_plan`` injects
    scripted failures into the mp fleet
    (:class:`~repro.sim.faults.FaultPlan`).
    """
    return run(
        "one-to-many", graph, config or OneToManyConfig(),
        assignment=assignment, fault_plan=fault_plan,
    )


def _placement(
    graph: "Graph | CSRGraph", config: OneToManyConfig,
    assignment: "Assignment | None",
) -> Assignment:
    """``assignment`` if given, else ``config.policy`` over ``graph``.

    A prebuilt :class:`CSRGraph` needs an explicit assignment: the
    placement policies are defined over the node ids of a :class:`Graph`.
    """
    if assignment is not None:
        if not isinstance(assignment, Assignment):
            raise ConfigurationError(
                "assignment must be a repro.core.assignment.Assignment "
                f"instance, got {type(assignment).__name__}"
            )
        return assignment
    if isinstance(graph, CSRGraph):
        raise ConfigurationError(
            "a prebuilt CSRGraph carries no placement policy input; "
            "pass an explicit assignment (from repro.core.assignment."
            "assign on the source Graph)"
        )
    return assign(graph, config.num_hosts, policy=config.policy, seed=config.seed)


def _export_extra(
    stats, estimates_sent: int, num_nodes: int, num_hosts: int,
    cut_edges: int, policy: "str | None",
) -> None:
    """The Figure-5 and partition keys every one-to-many row exports.

    ``cut_edges_after_refine`` appears only when the placement came from
    ``policy="refined"``, mirroring the metric registry's source
    annotation.
    """
    stats.extra["estimates_sent_total"] = estimates_sent
    stats.extra["estimates_sent_per_node"] = (
        estimates_sent / num_nodes if num_nodes else 0.0
    )
    stats.extra["num_hosts"] = num_hosts
    stats.extra["cut_edges"] = cut_edges
    if policy == "refined":
        stats.extra["cut_edges_after_refine"] = cut_edges


def run_objects(
    graph: Graph, config: OneToManyConfig, tracer: object,
    assignment: "Assignment | None" = None,
) -> DecompositionResult:
    """Row runner of the object engines (``round`` and ``async``)."""
    assignment = _placement(graph, config, assignment)
    processes = build_host_processes(
        graph,
        assignment,
        communication=config.communication,
        use_worklist=config.use_worklist,
    )
    if config.engine == "async":
        from repro.sim.async_engine import AsyncEngine

        stats = AsyncEngine(
            processes, seed=config.seed, strict=config.strict
        ).run()
    else:
        stats = RoundEngine(
            processes,
            mode=config.mode,
            seed=config.seed,
            max_rounds=config.max_rounds,
            strict=config.strict,
            observers=config.observers,
            telemetry=tracer,
        ).run()
    coreness: dict[int, int] = {}
    estimates_sent = 0
    for host in processes.values():
        estimates_sent += host.estimates_sent
        for u in host.owned:
            coreness[u] = host.est[u]
    _export_extra(
        stats, estimates_sent, graph.num_nodes, assignment.num_hosts,
        assignment.cut_edges(graph), assignment.policy,
    )
    return DecompositionResult(
        coreness=coreness,
        stats=stats,
        algorithm=f"one-to-many/{config.communication}/{assignment.policy}",
    )


def _shard(
    graph: "Graph | CSRGraph", config: OneToManyConfig,
    assignment: "Assignment | None",
) -> "tuple[ShardedCSR, Assignment]":
    """Place (before the CSR build, so a shared ``Random`` seed is
    consumed in the object path's order) and partition the graph."""
    assignment = _placement(graph, config, assignment)
    csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)
    return ShardedCSR(csr, assignment), assignment


def run_flat(
    graph: "Graph | CSRGraph", config: OneToManyConfig, tracer: object,
    assignment: "Assignment | None" = None,
) -> DecompositionResult:
    """Row runner of the sharded flat engine.

    An exact replay of the object path per (mode, communication,
    policy, seed); the cut comes from the shard build instead of an
    O(m) sweep. The flat cascade is always a worklist, so this row
    and the mp one reject ``use_worklist``; both object variants
    compute the same fixpoint and changed set. The flat and mp rows
    take no ``observers``: a per-round trace runs on
    ``engine="round"``.
    """
    from repro.sim.flat_many_engine import FlatOneToManyEngine

    # resolved before any shard work, so a missing numpy fails first
    backend = resolve_backend(config.backend)
    sharded, assignment = _shard(graph, config, assignment)
    engine = FlatOneToManyEngine(
        sharded,
        communication=config.communication,
        mode=config.mode,
        seed=config.seed,
        max_rounds=config.max_rounds,
        strict=config.strict,
        backend=backend,
        telemetry=tracer,
    )
    stats = engine.run()
    _export_extra(
        stats, engine.estimates_sent_total(), sharded.csr.num_nodes,
        sharded.num_hosts, sharded.cut_edges, assignment.policy,
    )
    return DecompositionResult(
        coreness=engine.coreness(),
        stats=stats,
        algorithm=(
            f"one-to-many/{config.communication}/{assignment.policy}-flat"
        ),
    )


#: Below this many owned nodes per worker the IPC bill (process spawn,
#: shard pickling, per-round batch serialization) dominates the actual
#: protocol work and the in-process flat engine is strictly better; the
#: mp runner emits a RuntimeWarning pointing there.
MP_SMALL_RUN_NODES_PER_WORKER = 512


def run_mp(
    graph: "Graph | CSRGraph", config: OneToManyConfig, tracer: object,
    assignment: "Assignment | None" = None,
    fault_plan: "FaultPlan | None" = None,
) -> DecompositionResult:
    """Row runner of the mp fleet: one OS process per host shard.

    An exact replay of the flat lockstep path, plus the transport keys
    (``pipe_bytes_*``, ``shard_payload_bytes``, ``workers``,
    ``start_method``, ``transport``, and ``shm_bytes_*`` on the shm
    transport). ``config.checkpoint`` makes the fleet snapshot every N
    rounds and recover a lost worker in flight; ``fault_plan`` scripts
    the failures. A run too small to amortize the process fan-out warns
    (``RuntimeWarning``) once the configuration is known to be valid.
    """
    from repro.sim.mp_engine import MultiProcessOneToManyEngine

    sharded, assignment = _shard(graph, config, assignment)
    engine = MultiProcessOneToManyEngine(
        sharded,
        communication=config.communication,
        mode=config.mode,
        seed=config.seed,
        max_rounds=config.max_rounds,
        strict=config.strict,
        backend=config.backend,
        start_method=config.mp_start_method or "spawn",
        transport=config.mp_transport or "queue",
        reply_timeout=config.mp_reply_timeout,
        checkpoint=config.checkpoint,
        fault_plan=fault_plan,
        telemetry=tracer,
    )
    # persisted into checkpoint manifests so a resumed run packages the
    # same label and placement keys without the original Graph or
    # Assignment
    engine.checkpoint_meta = {
        "algorithm": (
            f"one-to-many/{config.communication}/{assignment.policy}-mp"
        ),
        "policy": assignment.policy,
    }
    num_nodes = sharded.csr.num_nodes
    workers = sharded.num_hosts
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
    return _package_fleet(engine, engine.run())


def _package_fleet(engine, stats) -> DecompositionResult:
    """Result packaging shared by fresh and resumed fleets.

    The label and the placement policy come from
    ``engine.checkpoint_meta`` — the fields a checkpoint manifest
    persists — so a resumed run reports exactly the keys of an
    uninterrupted one. The recovery keys appear whenever they could be
    nonzero.
    """
    sharded = engine.sharded
    meta = engine.checkpoint_meta
    _export_extra(
        stats, engine.estimates_sent_total(), sharded.csr.num_nodes,
        sharded.num_hosts, sharded.cut_edges, meta.get("policy"),
    )
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
    return DecompositionResult(
        coreness=engine.coreness(), stats=stats, algorithm=meta["algorithm"]
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
    from repro.sim.mp_engine import MultiProcessOneToManyEngine

    ckpt = load_checkpoint(dir)
    cfg = ckpt.config
    tracer = run_tracer(telemetry, trace_out, lane="coordinator")
    engine = MultiProcessOneToManyEngine(
        pickle.loads(ckpt.fleet_blob),
        communication=cfg["communication"],
        mode="lockstep",
        max_rounds=cfg["max_rounds"] if max_rounds is None else max_rounds,
        strict=cfg["strict"] if strict is None else strict,
        backend=cfg["backend"],
        start_method=cfg["start_method"],
        transport=cfg["transport"],
        checkpoint=CheckpointPolicy(
            every_n_rounds=cfg["checkpoint_every"], dir=dir
        ),
        telemetry=tracer,
    )
    engine.checkpoint_meta = {
        "algorithm": cfg["algorithm"], "policy": cfg["policy"],
    }
    engine._resume = ckpt
    result = _package_fleet(engine, engine.run())
    finish_run_telemetry(tracer, trace_out, result.stats)
    return result
