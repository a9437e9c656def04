"""k-core decomposition as a Pregel program.

The vertex-centric port of Algorithm 1:

* superstep 0 — every vertex sets its value to its degree, sends
  ``(id, value)`` to all neighbours, and votes to halt;
* later supersteps — fold incoming estimates into the local ``est``
  table, recompute ``computeIndex``; if the value dropped, send the new
  value to all neighbours (optionally filtered as in Section 3.1.2),
  then vote to halt again.

A :class:`~repro.pregel.framework.MinCombiner` deduplicates multiple
estimates from the same sender within a superstep. The number of
supersteps matches the lockstep round engine's round count — both are
bulk-synchronous — which the tests assert.

Two execution paths (PR 4):

* ``engine="object"`` (default) — the faithful
  :class:`~repro.pregel.framework.PregelMaster` run over
  :class:`KCoreVertex` objects, with combiners, aggregators and
  observers of the BSP machinery itself.
* ``engine="flat"`` — the same program on the flat lockstep engine:
  each superstep is one round of
  :meth:`~repro.sim.flat_engine.FlatOneToOneEngine.rounds`, and the
  inter-/intra-worker message split and the active-vertex count are
  recomputed per superstep from that round's slots and the worker
  placement array. Supersteps, per-superstep message *and
  active-vertex* counts (``stats.extra["active_per_superstep"]``, both
  engines), total messages, the worker traffic split and the coreness
  are identical to the object path (``combined_away`` is identically 0
  for this program: a vertex sends at most one message per neighbour
  per superstep, so the per-(sender, destination) combiner never
  fires); ``tests/replay.py`` holds it to that replay.
  ``backend="stdlib"`` or ``"numpy"`` picks the kernel backend.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.assignment import assign
from repro.core.compute_index import compute_index
from repro.core.result import DecompositionResult
from repro.errors import ConfigurationError, ConvergenceError
from repro.graph.graph import Graph
from repro.pregel.framework import (
    MaxAggregator,
    MinCombiner,
    PregelMaster,
    SumAggregator,
    Vertex,
    VertexContext,
)
from repro.sim.metrics import SimulationStats

__all__ = ["KCoreVertex", "run_pregel_kcore"]


class KCoreVertex(Vertex[int]):
    """One graph node; ``value`` is the current coreness estimate."""

    __slots__ = ("est", "optimize_sends")

    def __init__(
        self, vid: int, neighbors: Sequence[int], optimize_sends: bool = True
    ) -> None:
        super().__init__(vid, value=len(neighbors), neighbors=neighbors)
        self.est: dict[int, int] = {}
        self.optimize_sends = optimize_sends

    def compute(self, ctx: VertexContext, messages: Sequence[object]) -> None:
        if ctx.superstep == 0:
            self.value = len(self.neighbors)
            for v in self.neighbors:
                ctx.send(v, (self.vid, self.value))
            ctx.vote_to_halt()
            return

        changed = False
        for sender, estimate in messages:  # type: ignore[misc]
            if estimate < self.est.get(sender, estimate + 1):
                self.est[sender] = estimate
                changed = True
        if changed:
            fallback = self.value + 1  # stands in for +inf
            t = compute_index(
                (self.est.get(v, fallback) for v in self.neighbors),
                self.value,
            )
            if t < self.value:
                self.value = t
                for v in self.neighbors:
                    if (
                        self.optimize_sends
                        and v in self.est
                        and self.value >= self.est[v]
                    ):
                        continue
                    ctx.send(v, (self.vid, self.value))
        ctx.vote_to_halt()


def _run_flat(
    graph: Graph,
    num_workers: int,
    optimize_sends: bool,
    partition_policy: str,
    max_supersteps: int,
    backend: str,
) -> DecompositionResult:
    """The BSP program on the flat lockstep engine (see module docstring).

    One superstep is one round of
    :meth:`~repro.sim.flat_engine.FlatOneToOneEngine.rounds`: superstep
    0 broadcasts every degree, superstep 1 seeds the estimate table from
    them, and every later superstep folds the previous one's slots. This
    adds the Pregel accounting per round, and the guard of
    :meth:`PregelMaster.run`, which also counts the final quiet
    superstep (``max_supersteps == supersteps`` raises).
    """
    from array import array

    from repro.graph.csr import CSRGraph
    from repro.sim.flat_engine import FlatOneToOneEngine

    csr = CSRGraph.from_graph(graph)
    host_of = assign(graph, num_workers, policy=partition_policy).host_of
    engine = FlatOneToOneEngine(
        csr, optimize_sends, max_rounds=max_supersteps, backend=backend
    )
    kb = engine.backend
    owner = kb.graph_array(csr.edge_owners())
    targets = kb.graph_array(csr.targets)
    worker_of = kb.graph_array(array("q", [host_of[u] for u in csr.ids]))
    active_per_superstep: list[int] = []
    intra = 0
    previous = None
    for supersteps, slots in enumerate(engine.rounds(), 1):
        # a vertex is active exactly when last superstep's slots address
        # it (every vertex votes to halt each superstep, so only an
        # incoming message reactivates; superstep 0 activates all)
        active_per_superstep.append(
            csr.num_nodes if supersteps == 1
            else kb.count_distinct_owners(previous, owner, csr.num_nodes)
        )
        intra += kb.count_intra(slots, owner, targets, worker_of)
        if supersteps >= max_supersteps:
            raise ConvergenceError(
                max(max_supersteps, 0), "Pregel run exceeded max_supersteps"
            )
        previous = slots

    stats = engine.stats
    stats.sent_per_process = {}  # the object master exports none either
    stats.extra.update(
        supersteps=stats.rounds_executed,
        inter_worker_messages=stats.total_messages - intra,
        intra_worker_messages=intra,
        combined_away=0,
        active_per_superstep=active_per_superstep,
        num_workers=num_workers,
    )
    return DecompositionResult(
        coreness=engine.coreness(),
        stats=stats,
        algorithm=f"pregel/{num_workers}w-flat",
    )


def run_pregel_kcore(
    graph: Graph,
    num_workers: int = 4,
    optimize_sends: bool = True,
    partition_policy: str = "modulo",
    use_combiner: bool = True,
    max_supersteps: int = 1_000_000,
    engine: str = "object",
    backend: str = "stdlib",
) -> DecompositionResult:
    """Run the k-core Pregel program; returns a decomposition result.

    ``stats.extra`` carries the Pregel-specific counters: supersteps,
    inter-/intra-worker message split, and combiner savings.
    ``engine="flat"`` selects the kernel-layer fast path (identical
    counters; ``use_combiner`` is irrelevant there because the program
    never produces a combinable pair — see the module docstring);
    ``backend`` picks its kernel backend and is rejected on the object
    engine, which runs vertex objects, not kernels.
    """
    if engine not in ("object", "flat"):
        raise ConfigurationError(
            f"unknown pregel engine {engine!r}; options: ['object', 'flat']"
        )
    if engine == "object" and backend != "stdlib":
        raise ConfigurationError(
            f"backend={backend!r} selects a flat-kernel backend and "
            "applies to engine='flat' only; the object Pregel master "
            "runs vertex objects, not kernels"
        )
    if engine == "flat":
        return _run_flat(
            graph,
            num_workers=num_workers,
            optimize_sends=optimize_sends,
            partition_policy=partition_policy,
            max_supersteps=max_supersteps,
            backend=backend,
        )
    vertices = [
        KCoreVertex(u, graph.sorted_neighbors(u), optimize_sends)
        for u in graph.nodes()
    ]
    master = PregelMaster(
        vertices,
        num_workers=num_workers,
        graph=graph,
        combiner=MinCombiner() if use_combiner else None,
        aggregators=(MaxAggregator("max-estimate"), SumAggregator("active")),
        max_supersteps=max_supersteps,
        partition_policy=partition_policy,
    )
    pregel_stats = master.run()

    stats = SimulationStats(
        rounds_executed=pregel_stats.supersteps,
        execution_time=sum(
            1 for count in pregel_stats.messages_per_superstep if count
        ),
        total_messages=pregel_stats.total_messages,
        sent_per_process={},
        sends_per_round=list(pregel_stats.messages_per_superstep),
        converged=pregel_stats.converged,
    )
    stats.extra.update(
        supersteps=pregel_stats.supersteps,
        inter_worker_messages=pregel_stats.inter_worker_messages,
        intra_worker_messages=pregel_stats.intra_worker_messages,
        combined_away=pregel_stats.combined_away,
        active_per_superstep=list(pregel_stats.active_per_superstep),
        num_workers=num_workers,
    )
    coreness = {v.vid: int(v.value) for v in master.vertices.values()}
    return DecompositionResult(
        coreness=coreness,
        stats=stats,
        algorithm=f"pregel/{num_workers}w",
    )
