"""Algorithm 1 — the one-host-one-node protocol (Section 3.1).

Every node keeps ``core`` (its own estimate, initialised to its degree)
and ``est[v]`` (last estimate heard from each neighbour, initially +∞).
On arrival of a smaller estimate the node lowers ``est[v]``, re-runs
``computeIndex`` and, if its own estimate dropped, schedules a broadcast
for the next periodic activation. Estimates never increase (safety,
Theorem 2) and eventually reach the coreness exactly (liveness,
Theorem 3).

Two implementation notes:

* **Batched recomputation.** The paper runs ``computeIndex`` on every
  message; this implementation drains the mailbox first and recomputes
  once per activation. Because ``est`` entries only decrease and
  ``computeIndex`` is monotone in them, the post-batch value equals the
  minimum of the per-message values — the externally visible state is
  identical, at a fraction of the cost on high-degree nodes.
* **Send filter (Section 3.1.2).** With ``optimize_sends`` a node sends
  its new estimate to neighbour ``v`` only when ``core < est[v]`` —
  i.e. only when the value can possibly lower ``v``'s ``computeIndex``
  result (values at or above ``v``'s own estimate are clamped anyway).
  The paper reports ≈50% message savings; ``benchmarks/
  bench_opt_message_filter.py`` reproduces that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.compute_index import compute_index
from repro.core.paths import run
from repro.core.result import DecompositionResult
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.sim.async_engine import AsyncEngine
from repro.sim.engine import Observer, RoundEngine
from repro.sim.kernels import resolve_backend
from repro.sim.node import Context, Message, Process

__all__ = ["KCoreNode", "OneToOneConfig", "run_one_to_one", "build_node_processes"]

#: Sentinel for "no estimate received yet" (the paper's +∞).
INFINITY = float("inf")


class KCoreNode(Process):
    """One protocol participant: graph node == host.

    Public state inspected by observers and result extraction:

    * :attr:`core` — current coreness estimate (== coreness at the end);
    * :attr:`est` — neighbour estimates (missing key ≡ +∞);
    * :attr:`changed` — whether a broadcast is pending.
    """

    __slots__ = (
        "neighbors", "core", "est", "changed", "optimize_sends", "scratch"
    )

    def __init__(
        self,
        pid: int,
        neighbors: Sequence[int],
        optimize_sends: bool = True,
        scratch: list[int] | None = None,
    ) -> None:
        super().__init__(pid)
        self.neighbors: tuple[int, ...] = tuple(neighbors)
        self.core: int = len(self.neighbors)
        self.est: dict[int, int] = {}
        self.changed = False
        self.optimize_sends = optimize_sends
        # computeIndex bucket buffer; sharable across nodes because each
        # call fully overwrites the first k+1 entries
        self.scratch: list[int] = scratch if scratch is not None else []

    # ------------------------------------------------------------------
    def on_init(self, ctx: Context) -> None:
        """Broadcast ⟨u, d(u)⟩ to all neighbours."""
        self.core = len(self.neighbors)
        self.est.clear()
        self.changed = False
        for v in self.neighbors:
            ctx.send(v, self.core)

    def on_messages(self, ctx: Context, messages: Sequence[Message]) -> None:
        """Fold received estimates into ``est``; recompute own estimate."""
        updated = False
        for sender, payload in messages:
            k = payload  # type: ignore[assignment]
            if k < self.est.get(sender, INFINITY):
                self.est[sender] = k  # type: ignore[assignment]
                updated = True
        if not updated:
            return
        t = compute_index(
            (self.est.get(v, self.core + 1) for v in self.neighbors),
            self.core,
            self.scratch,
        )
        if t < self.core:
            self.core = t
            self.changed = True

    def on_round(self, ctx: Context) -> None:
        """Periodic block: broadcast the new estimate when it changed."""
        if not self.changed:
            return
        for v in self.neighbors:
            if self.optimize_sends and self.core >= self.est.get(v, INFINITY):
                continue
            ctx.send(v, self.core)
        self.changed = False

    def is_quiescent(self) -> bool:
        return not self.changed


@dataclass
class OneToOneConfig:
    """Configuration for :func:`run_one_to_one`.

    Attributes
    ----------
    mode:
        ``"peersim"`` (randomized activation, Section 5 experiments) or
        ``"lockstep"`` (synchronous rounds, Section 4 analysis).
    optimize_sends:
        Enable the Section 3.1.2 message filter.
    engine:
        ``"round"`` (object engine), ``"async"`` (event-driven,
        arbitrary latencies) or ``"flat"`` (the array fast path of
        :mod:`repro.sim.flat_engine`; supports both ``mode`` values,
        bit-identical results — including the RNG-driven activation
        order under ``mode="peersim"`` — to ``engine="round"`` with the
        same mode and seed). Which fields
        each engine takes is one row of :mod:`repro.core.paths`: the
        async engine has no rounds and no activation modes, so
        combining it with ``fixed_rounds``, ``mode="lockstep"`` or
        ``observers`` raises :class:`ConfigurationError`; likewise
        ``latency`` and ``async_max_time`` are async-only.
    observers:
        ``observer(round_number, engine)`` callables run after every
        round of ``engine="round"``, such as
        :class:`~repro.sim.tracing.TraceRecorder`. Only that engine
        takes them; the flat engines replay it round for round, so its
        trace is also theirs.
    backend:
        Kernel backend for ``engine="flat"`` (see
        :mod:`repro.sim.kernels`): ``"stdlib"`` (canonical, default)
        or ``"numpy"`` (vectorised, optional install, bit-identical
        results). The object engines run no kernels, so a non-default
        backend combined with ``engine="round"`` / ``"async"`` raises
        :class:`ConfigurationError`; so does ``backend="numpy"`` with
        ``mode="peersim"``, whose immediate-delivery activation loop is
        inherently sequential (stdlib-only — see the support matrix).
    max_rounds:
        Convergence guard; runs that exceed it raise unless ``strict``
        is off, in which case a partial (approximate) result returns.
    fixed_rounds:
        If set, stop after exactly this many rounds and return the
        (possibly approximate) estimates — the "fixed number of rounds"
        termination mode of Section 3.3.
    telemetry:
        ``True``/``False`` or a :class:`repro.telemetry.Tracer`; when
        enabled, the run is bracketed in spans (rounds, kernel phases
        on ``engine="flat"``) collectable via ``Tracer.buffers()``. A
        pure observer — results are bit-identical with tracing on or
        off. The async engine has no rounds to bracket, so telemetry
        under ``engine="async"`` raises :class:`ConfigurationError`.
    trace_out:
        Path for the collected trace — Chrome trace-event JSON
        (loadable in Perfetto / ``chrome://tracing``), or JSON Lines
        when the path ends in ``.jsonl``. Implies ``telemetry=True``.
    """

    mode: str = "peersim"
    optimize_sends: bool = True
    engine: str = "round"
    backend: str = "stdlib"
    seed: int | None = 0
    max_rounds: int = 1_000_000
    strict: bool = True
    fixed_rounds: int | None = None
    observers: Sequence[Observer] = field(default_factory=tuple)
    latency: Callable[[random.Random], float] | None = None
    async_max_time: float = 1e6
    telemetry: object = None
    trace_out: str | None = None


def build_node_processes(
    graph: Graph, optimize_sends: bool = True
) -> dict[int, KCoreNode]:
    """Instantiate one :class:`KCoreNode` per graph node.

    Neighbour tuples come pre-sorted from the graph's cache
    (:meth:`Graph.sorted_neighbors`), so repeated runs over the same
    graph skip the per-node re-sort; all nodes share one ``computeIndex``
    scratch buffer.
    """
    scratch: list[int] = []
    return {
        u: KCoreNode(u, graph.sorted_neighbors(u), optimize_sends, scratch)
        for u in graph.nodes()
    }


def run_one_to_one(
    graph: "Graph | CSRGraph", config: OneToOneConfig | None = None
) -> DecompositionResult:
    """Run Algorithm 1 over ``graph`` and return the decomposition.

    ``config.engine`` and ``config.mode`` select a row of the table of
    execution paths (:mod:`repro.core.paths`), which rejects every field
    that row does not take. The flat rows also accept a prebuilt
    :class:`CSRGraph` (conversion amortised by the caller).

    >>> from repro.graph.generators import clique_graph
    >>> run_one_to_one(clique_graph(4)).coreness
    {0: 3, 1: 3, 2: 3, 3: 3}
    """
    return run("one-to-one", graph, config or OneToOneConfig())


def run_objects(
    graph: Graph, config: OneToOneConfig, tracer: object
) -> DecompositionResult:
    """Row runner of the object engines (``round`` and ``async``)."""
    processes = build_node_processes(graph, config.optimize_sends)
    if config.engine == "async":
        stats = AsyncEngine(
            processes,
            latency=config.latency,
            seed=config.seed,
            max_time=config.async_max_time,
            strict=config.strict,
        ).run()
        label = "one-to-one/async"
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
        label = f"one-to-one/{config.mode}"
    coreness = {pid: proc.core for pid, proc in processes.items()}
    return DecompositionResult(coreness=coreness, stats=stats, algorithm=label)


def run_flat(
    graph: "Graph | CSRGraph", config: OneToOneConfig, tracer: object
) -> DecompositionResult:
    """Row runner of the flat engines: ``mode="lockstep"`` on
    :class:`~repro.sim.flat_engine.FlatOneToOneEngine` (the Section-4
    synchronous model), ``mode="peersim"`` on
    :class:`~repro.sim.flat_engine.FlatPeerSimEngine` (RNG-identical to
    the object engine for every seed). The flat rows take no
    ``observers``: a per-round trace runs on ``engine="round"``.
    """
    from repro.sim.flat_engine import FlatOneToOneEngine, FlatPeerSimEngine

    # resolved before any array work, so a missing numpy fails first
    backend = resolve_backend(config.backend)
    if isinstance(graph, CSRGraph):
        csr = graph
        activation_ids = None
    else:
        csr = CSRGraph.from_graph(graph)
        # the object engine shuffles pids in process-dict insertion
        # order == graph.nodes() order; replaying the RNG stream
        # bit-exactly requires starting from that same base sequence
        activation_ids = (
            list(graph.nodes()) if config.mode == "peersim" else None
        )
    common = dict(
        optimize_sends=config.optimize_sends,
        max_rounds=config.max_rounds,
        strict=config.strict,
        telemetry=tracer,
    )
    if config.mode == "peersim":
        engine: "FlatOneToOneEngine | FlatPeerSimEngine" = FlatPeerSimEngine(
            csr, seed=config.seed, activation_ids=activation_ids, **common
        )
    else:
        engine = FlatOneToOneEngine(csr, backend=backend, **common)
    stats = engine.run()
    return DecompositionResult(
        coreness=engine.coreness(),
        stats=stats,
        algorithm=f"one-to-one/{config.mode}-flat",
    )
