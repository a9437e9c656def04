"""Flat streaming k-core maintenance on the CSR/kernel layer.

:class:`~repro.streaming.maintenance.DynamicKCore` proved that
warm-started maintenance is *exact* (its module docstring carries the
fixpoint argument); this module moves the same algorithm off the object
``Graph`` and onto :class:`~repro.graph.dynamic_csr.DynamicCSRGraph`
plus the kernel backends, so the live-overlay scenario runs on the same
flat machinery as every other fast path in the repository.

:class:`FlatDynamicKCore` applies churn in batches:

* structural edits go through the backend's batched ``csr_insert_slots``
  / ``csr_delete_slots`` kernels (tombstones on delete, slack-slot
  writes on insert);
* the dirty frontier is seeded exactly as the object engine argues —
  on **delete** the old coreness already upper-bounds the new one, so
  only the endpoints are dirty; on **insert** coreness can rise by at
  most one and only inside the endpoints' *subcore*, so that candidate
  set is bumped by one. Consecutive delete-type edits share a single
  re-convergence (their bounds compose: coreness only falls under
  deletion); an insertion's subcore argument needs exact coreness, so
  pending deletions are settled first;
* re-convergence runs on the backend's ``reconverge_from_bounds``
  kernel (synchronous Jacobi rounds — bit-identical across backends,
  including the round count);
* compaction is checked after every batch: when the dynamic CSR's
  garbage ratio crosses its deterministic threshold, the structure is
  rebuilt and the estimate table permuted with the returned row map.

The result is bit-identical to the object engine and to from-scratch
Batagelj–Zaveršnik after every batch — the differential churn grid in
``tests/test_streaming_equivalence.py`` pins this across 12 graph
families, three trace shapes, three seeds and both backends.

**Approximate ELM lane** (``approx=eps``): following Esfandiari,
Lattanzi & Mirrokni ("Parallel and Streaming Algorithms for K-Core
Decomposition"), each inserted edge is kept independently with a fixed
probability ``p = min(1, 3 ln(n0) / (eps^2 * approx_floor))`` decided
by a seeded arithmetic edge hash (deterministic, order-independent, no
per-edge memory). The engine maintains the *exact* coreness of the
sampled subgraph and reports ``round(core_sample / p)``. By the ELM
sampling theorem the estimate is within a ``(1 ± eps)`` factor of the
true coreness, with high probability, for every node whose true
coreness is at least ``approx_floor``; below the floor only the
additive bound ``O(log n / p)`` holds. Space and re-convergence work
shrink by the factor ``p``. Deleting an edge the sample never kept is
a silent no-op (the sample is unchanged), so ``has_edge`` on this lane
answers for the sample, not the full graph.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.baselines.batagelj_zaversnik import batagelj_zaversnik_csr
from repro.errors import ConfigurationError, EdgeError, GraphError, \
    NodeNotFoundError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic_csr import DynamicCSRGraph
from repro.sim.kernels import resolve_backend
from repro.telemetry.spans import resolve_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.graph import Graph

__all__ = ["FlatDynamicKCore"]

_M64 = (1 << 64) - 1


def _edge_hash(u: int, v: int, seed: int) -> int:
    """Seeded splitmix64-style mix of an undirected edge.

    Pure arithmetic (no builtin ``hash``), so the sampling decision is
    deterministic across processes and replay orders.
    """
    a, b = (u, v) if u <= v else (v, u)
    x = (
        a * 0x9E3779B97F4A7C15
        + b * 0xC2B2AE3D27D4EB4F
        + (seed + 1) * 0x165667B19E3779F9
    ) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


def _fresh_metrics() -> dict[str, Any]:
    return {
        "edits_applied": 0,
        "dirty_nodes_total": 0,
        "compactions": 0,
        "dirty_nodes_per_batch": [],
        "reconverge_rounds_per_batch": [],
    }


class FlatDynamicKCore:
    """Maintains coreness of a mutating graph on flat kernels.

    >>> engine = FlatDynamicKCore()
    >>> engine.insert_edge(0, 1)
    >>> engine.coreness[0]
    1

    The per-edit API mirrors :class:`~repro.streaming.maintenance.
    DynamicKCore` (same exceptions, same exact coreness after every
    call); :meth:`apply_events` is the batch entry point used by
    ``replay_trace(engine="flat")`` and :class:`~repro.streaming.
    service.ChurnService`. :attr:`metrics` accumulates the registered
    streaming metrics (``edits_applied``, ``dirty_nodes_total``,
    ``compactions`` and the per-batch histograms); wall-clock lives in
    telemetry spans (``churn.apply_batch`` / ``kernel.reconverge`` /
    ``csr.compact``), never in the metrics dict.
    """

    #: Visited-row cap for the insertion candidate walk; past it the
    #: walk falls back to bumping the whole level set (see
    #: :meth:`_insert_candidates`).  Class attribute so tests can force
    #: the fallback on small graphs.
    _WALK_BUDGET = 96

    def __init__(
        self,
        graph: "Graph | CSRGraph | DynamicCSRGraph | None" = None,
        backend=None,
        *,
        approx: float | None = None,
        approx_floor: int = 16,
        seed: int = 0,
        telemetry=None,
    ) -> None:
        self._backend = resolve_backend(
            graph.backend if isinstance(graph, DynamicCSRGraph)
            and backend is None else backend
        )
        self._tracer = resolve_tracer(telemetry)
        self._scratch: list[int] = []
        self._pending: set[int] = set()
        self._coreness_cache: dict[int, int] | None = None
        self.metrics: dict[str, Any] = _fresh_metrics()
        self._batch_dirty = 0
        self._batch_rounds = 0
        if approx is not None and not 0.0 < approx < 1.0:
            raise ConfigurationError(
                f"approx={approx!r}: the ELM error target must be in (0, 1)"
            )
        if approx_floor < 1:
            raise ConfigurationError("approx_floor must be >= 1")
        self._approx = approx
        self._seed = seed
        self._sample_p = 1.0
        csr = self._adopt(graph)
        if approx is not None:
            n0 = max(csr.num_nodes, 2)
            self._sample_p = min(
                1.0, 3.0 * math.log(n0) / (approx * approx * approx_floor)
            )
            csr = self._downsample(csr)
        self._graph = DynamicCSRGraph.from_csr(csr, self._backend)
        self._est = array("q", batagelj_zaversnik_csr(csr))

    def _adopt(self, graph) -> CSRGraph:
        """Boundary conversion of any accepted input to a CSR snapshot."""
        if graph is None:
            return CSRGraph(array("q", [0]), array("q"), array("q"))
        if isinstance(graph, DynamicCSRGraph):
            return graph.to_csr()
        if isinstance(graph, CSRGraph):
            return graph
        return CSRGraph.from_graph(graph)

    def _keeps(self, u: int, v: int) -> bool:
        """ELM sampling decision for edge ``{u, v}`` (fixed per edge)."""
        if self._approx is None:
            return True
        draw = (_edge_hash(u, v, self._seed) >> 11) / float(1 << 53)
        return draw < self._sample_p

    def _downsample(self, csr: CSRGraph) -> CSRGraph:
        """The sampled subgraph of ``csr`` (every node, kept edges)."""
        ids = csr.ids
        kept = [
            (ids[a], ids[b])
            for a, b in csr.edges()
            if self._keeps(ids[a], ids[b])
        ]
        full = CSRGraph.from_edges(kept)
        # re-attach nodes whose every edge was sampled away
        index = {full.ids[i]: i for i in range(full.num_nodes)}
        missing = sorted(set(ids) - set(index))
        if not missing:
            return full
        all_ids = sorted(set(ids))
        offsets = array("q", [0]) * (len(all_ids) + 1)
        remap = {}
        for i, node in enumerate(all_ids):
            remap[node] = i
            deg = (
                full.degree(index[node]) if node in index else 0
            )
            offsets[i + 1] = offsets[i] + deg
        targets = array("q", [0]) * len(full.targets)
        for i, node in enumerate(all_ids):
            if node not in index:
                continue
            nbrs = sorted(
                remap[full.ids[t]]
                for t in full.neighbors(index[node])
            )
            lo = offsets[i]
            targets[lo:lo + len(nbrs)] = array("q", nbrs)
        return CSRGraph(offsets, targets, array("q", all_ids), name=csr.name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicCSRGraph:
        """The maintained dynamic CSR (mutate only through this class)."""
        return self._graph

    @property
    def backend(self):
        return self._backend

    @property
    def sample_probability(self) -> float:
        """The ELM sampling probability (1.0 on the exact lane)."""
        return self._sample_p

    @property
    def coreness(self) -> dict[int, int]:
        """Current coreness of every node (scaled estimate if approx)."""
        if self._coreness_cache is None:
            g = self._graph
            est = self._est
            if self._approx is None:
                self._coreness_cache = {
                    node: est[row] for node, row in g._index_of.items()
                }
            else:
                p = self._sample_p
                self._coreness_cache = {
                    node: int(est[row] / p + 0.5)
                    for node, row in g._index_of.items()
                }
        return self._coreness_cache

    def coreness_of(self, node: int) -> int:
        """Current coreness of one node, read without building the map."""
        row = self._graph._index_of.get(node)
        if row is None:
            raise NodeNotFoundError(node)
        if self._approx is None:
            return self._est[row]
        return int(self._est[row] / self._sample_p + 0.5)

    def core(self, k: int) -> set[int]:
        """Nodes of the current k-core."""
        return {u for u, c in self.coreness.items() if c >= k}

    def has_node(self, node: int) -> bool:
        return self._graph.has_node(node)

    def has_edge(self, u: int, v: int) -> bool:
        """Edge presence (in the *sample*, on the approx lane)."""
        return self._graph.has_edge(u, v)

    def degree(self, node: int) -> int:
        return self._graph.degree(node)

    @property
    def touched_last_op(self) -> int:
        """Nodes the last batch re-evaluated (object-engine parity)."""
        hist = self.metrics["dirty_nodes_per_batch"]
        return hist[-1] if hist else 0

    # ------------------------------------------------------------------
    # per-edit API (exact coreness after every call)
    # ------------------------------------------------------------------
    def add_node(self, node: int) -> None:
        """Add an isolated node (coreness 0)."""
        if self._graph.has_node(node):
            raise GraphError(f"node {node} already present")
        self._begin_batch()
        self._add_row(node)
        self._finish_batch(1)

    def insert_edge(self, u: int, v: int) -> None:
        """Insert edge {u, v}; creates missing endpoints."""
        self._begin_batch()
        self._insert(u, v)
        self._finish_batch(1)

    def delete_edge(self, u: int, v: int) -> None:
        """Delete edge {u, v} (endpoints stay)."""
        self._begin_batch()
        self._delete(u, v)
        self._finish_batch(1)

    def remove_node(self, node: int) -> None:
        """Remove a node and all its incident edges."""
        self._begin_batch()
        self._remove(node)
        self._finish_batch(1)

    # ------------------------------------------------------------------
    # batch API
    # ------------------------------------------------------------------
    def apply_events(self, events: Iterable) -> int:
        """Apply one churn batch with replay guard semantics.

        ``events`` are :class:`~repro.workloads.churn.ChurnEvent`-shaped
        objects (``kind`` / ``nodes``); guards match ``replay_trace``:
        joins insert edges only to present contacts, leaves of absent
        nodes are skipped, links require both endpoints present and the
        edge absent, unlinks require the edge present. Guards are
        evaluated sequentially against live state, so intra-batch
        dependencies (join then link to the new node) behave exactly
        like event-at-a-time replay. Returns the number of primitive
        edits applied; coreness is exact when the call returns.
        """
        self._begin_batch()
        applied = 0
        with self._tracer.span("churn.apply_batch") as span:
            for event in events:
                applied += self._apply_event(event)
            self._flush()
            span.note(edits=applied)
        self._finish_batch(applied)
        return applied

    def _apply_event(self, event) -> int:
        kind = event.kind
        if kind == "join":
            new, *contacts = event.nodes
            if self._graph.has_node(new):
                raise GraphError(f"node {new} already present")
            self._add_row(new)
            applied = 1
            for contact in contacts:
                if self._graph.has_node(contact):
                    self._insert(new, contact)
                    applied += 1
            return applied
        if kind == "leave":
            (victim,) = event.nodes
            if self._graph.has_node(victim):
                self._remove(victim)
                return 1
            return 0
        if kind == "link":
            u, v = event.nodes
            if (
                self._graph.has_node(u)
                and self._graph.has_node(v)
                and not self._graph.has_edge(u, v)
            ):
                self._insert(u, v)
                return 1
            return 0
        if kind == "unlink":
            u, v = event.nodes
            if self._graph.has_edge(u, v):
                self._delete(u, v)
                return 1
            return 0
        raise ConfigurationError(f"unknown churn event kind {kind!r}")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _add_row(self, node: int) -> int:
        row = self._graph.add_node(node)
        self._est.append(0)
        self._coreness_cache = None
        return row

    def _insert(self, u: int, v: int) -> None:
        # the subcore argument needs exact coreness: settle pending
        # delete-type dirt first
        self._flush()
        if u == v:
            raise EdgeError(f"self-loop on node {u} is not allowed")
        for node in (u, v):
            if not self._graph.has_node(node):
                self._add_row(node)
        if self._graph.has_edge(u, v):
            raise EdgeError(f"edge ({u}, {v}) already present")
        if not self._keeps(u, v):
            return  # ELM lane: the sample never takes this edge
        self._graph.insert_edges([(u, v)])
        est = self._est
        ru = self._graph.row_of(u)
        rv = self._graph.row_of(v)
        level = min(est[ru], est[rv])
        roots = [r for r in (ru, rv) if est[r] == level]
        candidates = self._insert_candidates(roots, level)
        for r in candidates:
            est[r] = level + 1
        self._coreness_cache = None
        self._reconverge(sorted(candidates | {ru, rv}))

    def _delete(self, u: int, v: int) -> None:
        if self._approx is not None and not self._graph.has_edge(u, v):
            for node in (u, v):  # still surface bad ids, like the graph
                if not self._graph.has_node(node):
                    raise NodeNotFoundError(node)
            return  # ELM lane: the sample never held this edge
        self._graph.delete_edges([(u, v)])
        self._pending.add(self._graph.row_of(u))
        self._pending.add(self._graph.row_of(v))
        self._coreness_cache = None

    def _remove(self, node: int) -> None:
        row = self._graph.row_of(node)
        nbrs = self._graph.remove_node(node)
        self._pending.discard(row)
        self._est[row] = 0
        self._pending.update(nbrs)
        self._coreness_cache = None

    def _insert_candidates(self, roots: Sequence[int], level: int) -> set[int]:
        """Rows that may rise to ``level + 1`` after the edge insert.

        Bumping the whole subcore (rows at ``level`` connected to a
        root through such rows) is sound but degenerate on graphs with
        a concentrated coreness distribution, where the subcore is most
        of the graph.  Two classic traversal-insertion refinements keep
        the candidate set — and with it the warm-start frontier — small
        without giving up exactness:

        * a row can only rise if strictly more than ``level`` of its
          neighbours could sit at ``level + 1``: neighbours with a
          higher estimate always qualify, same-level neighbours only
          if they are candidates themselves.  Rows failing even the
          optimistic count (every same-level neighbour assumed to
          rise) are never enqueued and never expanded through;
        * the walk carries a visit budget (:attr:`_WALK_BUDGET`).  On
          graphs whose coreness distribution concentrates on one
          value the level set percolates and no local test stops the
          walk from flooding it; once the budget trips, the walk is
          abandoned for the coarser-but-sound bump set of *every*
          live row at ``level`` — an array scan instead of a
          traversal — and the re-convergence kernel performs the peel
          (the numpy backend vectorises those rounds);
        * within budget, the walk is peeled instead: a candidate
          whose support from still-viable neighbours drops to
          ``level`` or below is evicted, decrementing its candidate
          neighbours, cascading.

        Every true riser survives each variant — risers are connected
        to a root through risers, a riser keeps more than ``level``
        viable supporters as long as no riser has been evicted, and
        the fallback set contains the whole subcore — so bumping the
        result always yields a pointwise upper bound and
        re-convergence lands on exact coreness.
        """
        est = self._est
        g = self._graph
        budget = self._WALK_BUDGET

        def optimistic(r: int) -> int:
            return sum(1 for t in g.neighbors_rows(r) if est[t] >= level)

        cand: set[int] = set()
        queue: deque[int] = deque()
        for r in roots:
            if r not in cand and optimistic(r) > level:
                cand.add(r)
                queue.append(r)
        while queue:
            r = queue.popleft()
            for t in g.neighbors_rows(r):
                if t in cand or est[t] != level:
                    continue
                if optimistic(t) > level:
                    cand.add(t)
                    queue.append(t)
            if len(cand) > budget:
                return {
                    row for row in g.live_rows() if est[row] == level
                }
        # Peel: support now counts only higher-level neighbours and
        # surviving candidates (every candidate sits at ``level``).
        support = {
            r: sum(
                1
                for t in g.neighbors_rows(r)
                if est[t] > level or t in cand
            )
            for r in sorted(cand)
        }
        stack = sorted(r for r in cand if support[r] <= level)
        while stack:
            r = stack.pop()
            if r not in cand:
                continue
            cand.discard(r)
            for t in g.neighbors_rows(r):
                if t in cand:
                    support[t] -= 1
                    if support[t] <= level:
                        stack.append(t)
        return cand

    def _flush(self) -> None:
        if self._pending:
            frontier = sorted(self._pending)
            self._pending.clear()
            self._reconverge(frontier)

    def _reconverge(self, frontier: list[int]) -> None:
        if not frontier:
            return
        g = self._graph
        with self._tracer.span(
            "kernel.reconverge", frontier=len(frontier)
        ) as span:
            changed, rounds = self._backend.reconverge_from_bounds(
                g.starts, g.used, g.targets, self._est, frontier,
                self._scratch,
            )
            span.note(changed=len(changed), rounds=rounds)
        self._coreness_cache = None
        self._batch_dirty += len(set(frontier) | set(changed))
        self._batch_rounds += rounds

    def _begin_batch(self) -> None:
        self._batch_dirty = 0
        self._batch_rounds = 0

    def _finish_batch(self, edits: int) -> None:
        self._flush()
        self._maybe_compact()
        m = self.metrics
        m["edits_applied"] += edits
        m["dirty_nodes_total"] += self._batch_dirty
        m["dirty_nodes_per_batch"].append(self._batch_dirty)
        m["reconverge_rounds_per_batch"].append(self._batch_rounds)

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Force a compaction/rebuild now (tests; normally automatic)."""
        self._maybe_compact(force=True)

    def _maybe_compact(self, force: bool = False) -> None:
        g = self._graph
        if not (force or g.needs_compaction):
            return
        with self._tracer.span(
            "csr.compact", rows=g.num_rows, garbage=g.garbage_slots
        ):
            est = self._est
            mapping = g.compact()
            new_est = array("q", [0]) * g.num_rows
            for old in range(len(mapping)):
                new = mapping[old]
                if new >= 0:
                    new_est[new] = est[old]
            self._est = new_est
        self.metrics["compactions"] += 1
        self._coreness_cache = None

    # ------------------------------------------------------------------
    def verify(self) -> bool:
        """Expensive check: maintained estimates equal recomputation.

        On the approx lane this verifies the *sample's* coreness — the
        maintenance is exact on the sampled subgraph; the scaling is
        where the (1 ± eps) approximation enters.
        """
        csr = self._graph.to_csr()
        oracle = batagelj_zaversnik_csr(csr)
        est = self._est
        row_of = self._graph._index_of
        return all(
            est[row_of[csr.ids[i]]] == oracle[i]
            for i in range(csr.num_nodes)
        )
