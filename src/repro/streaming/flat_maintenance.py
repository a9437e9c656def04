"""Flat streaming k-core maintenance on a dynamic CSR.

:class:`~repro.streaming.maintenance.DynamicKCore` proved that
warm-started maintenance is *exact* (its module docstring carries the
fixpoint argument); this module moves the same algorithm off the object
``Graph`` and onto :class:`~repro.graph.dynamic_csr.DynamicCSRGraph`,
so the live-overlay scenario runs on flat ``array('q')`` buffers like
every other fast path in the repository.

:class:`FlatDynamicKCore` applies churn in batches:

* structural edits are the dynamic CSR's own row edits (an entry
  appended to or removed from each endpoint's neighbour array), and a
  join reuses the row of the last node that left, so the engine's
  row-indexed tables grow only past the peak live node count;
* the engine keeps a *k-order* of its live rows
  (:class:`~repro.streaming.korder.KOrder`, seeded from the
  Batagelj–Zaveršnik peel it runs at construction): levels ascending,
  a valid peel order within each level, and each row's remaining
  degree — its live neighbours later in the order, never above its
  level;
* on **delete** the old coreness already upper-bounds the new one, so
  only the endpoints are dirty, and the earlier endpoint loses one
  remaining degree. Consecutive delete-type edits share a single
  re-convergence (their bounds compose: coreness only falls under
  deletion); an insert needs exact coreness and an exact order, so
  pending deletions are settled first;
* on **insert** Zhang et al.'s OrderInsert ("A Fast Order-Based
  Approach for Core Maintenance", ICDE 2017) visits, in k-order, only
  the rows a candidate reaches from the first endpoint and finds
  exactly the rows that rise; they move to the next level. That leaves
  exact levels and an exact k-order, so an insert seeds no
  re-convergence; ``tests/test_streaming_equivalence.py`` checks the
  coreness and the order after every single insert;
* re-convergence (deletes only) is :func:`reconverge_from_bounds`
  (synchronous Jacobi rounds from the old levels, support-counted);
  every row whose level it lowered moves to the tail of its new level
  in a local peel order, so the k-order stays exact in time
  proportional to those rows and their neighbours.

The result is bit-identical to the object engine and to from-scratch
Batagelj–Zaveršnik after every batch — the differential churn grid in
``tests/test_streaming_equivalence.py`` pins this across 12 graph
families, three trace shapes and three seeds.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from heapq import heappop, heappush
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Iterable

from repro.baselines.batagelj_zaversnik import batagelj_zaversnik_csr, \
    batagelj_zaversnik_order
from repro.core.compute_index import compute_index
from repro.errors import EdgeError, GraphError, NodeNotFoundError
from repro.graph.csr import CSRGraph
from repro.graph.dynamic_csr import DynamicCSRGraph
from repro.streaming.korder import SHIFT, KOrder
from repro.telemetry.spans import resolve_tracer
from repro.workloads.churn import apply_event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.graph import Graph

__all__ = ["FlatDynamicKCore", "reconverge_from_bounds"]


def reconverge_from_bounds(rows, est, frontier, scratch):
    """Warm-start re-convergence of the locality operator.

    ``est`` holds a pointwise *upper bound* of the true coreness over
    the graph whose neighbour arrays are ``rows`` (a freed row's array
    is empty); iterate ``computeIndex`` to the greatest fixpoint below
    it — which is the coreness, because iterating from any upper bound
    is monotone non-increasing and cannot cross a fixpoint (the
    ``streaming.maintenance`` module docstring carries the full
    argument). Runs as synchronous (Jacobi) rounds, so the round count
    is schedule-independent: each round recomputes the whole frontier
    from a snapshot of ``est``, applies every drop at once, then the
    next frontier is the neighbours of the dropped rows. Rows with
    ``est <= 0`` are skipped (they cannot drop); rows with no
    neighbours drop to 0.

    The rows are symmetric (``t`` in ``rows[u]`` exactly when ``u`` is
    in ``rows[t]``), and every row outside ``frontier`` is already at
    its fixpoint: ``computeIndex`` over its neighbours returns its
    ``est``. The engine's frontier, the endpoints of the edits since
    its last fixpoint, makes that so. A drop is then decided from
    support counts instead of a recompute: for ``est >= 2`` and a
    neighbour, ``computeIndex`` returns less than ``est`` exactly when
    fewer than ``est`` neighbours sit at ``>= est``. Each row is counted
    once per call and its count adjusted when a neighbour's drop
    crosses its level, so ``computeIndex`` runs once per row and round
    in which the row drops. ``scratch`` is the caller-owned
    ``computeIndex`` bucket list.

    Returns ``(changed, rounds)``: the ascending list of rows whose
    estimate dropped and the number of rounds executed. A round that
    drops nothing still counts when it runs, that is when the round
    before it left a neighbour of a dropped row above 0.
    """
    # A row at k >= 2 with a neighbour drops exactly when its support
    # (neighbours at >= k) is below k, so only those rows run
    # computeIndex. ``sup`` holds the support of every row counted in
    # this call: round 1 counts the frontier, a dropped row takes the
    # suffix count scratch[new], and a drop old -> new takes one
    # support from each neighbour whose level it crosses
    # (old >= level > new). A neighbour's first crossing gets it
    # counted once the round's drops are applied, so its count already
    # holds them; a row no drop crosses keeps the support it had when
    # the call began.
    _compute_index = compute_index
    sup: dict[int, int] = {}
    changed: set[int] = set()
    # rows to count and rows whose support fell below their level,
    # each once, in first-touch order (dicts drain deterministically)
    fresh = dict.fromkeys(u for u in frontier if est[u] > 0)
    low: dict[int, None] = {}
    more = bool(fresh)
    rounds = 0
    while more:
        rounds += 1
        drops: list[tuple[int, int, int]] = []
        for u in fresh:
            k = est[u]
            vals = [est[t] for t in rows[u]]
            c = sum(map(k.__le__, vals))
            if not vals:
                drops.append((u, k, 0))
            elif c < k and k > 1:
                new = _compute_index(vals, k, scratch)
                c = scratch[new]
                drops.append((u, k, new))
            sup[u] = c
        for u in low:
            k = est[u]
            if k > 1:
                new = _compute_index([est[t] for t in rows[u]], k, scratch)
                sup[u] = scratch[new]
                drops.append((u, k, new))
        if not drops:
            break
        for u, _, new in drops:
            est[u] = new
            changed.add(u)
        fresh = {}
        low = {}
        more = False
        for u, old, new in drops:
            for t in rows[u]:
                level = est[t]
                if level > 0:
                    # the next round runs, with or without a drop
                    more = True
                    if old >= level > new:
                        c = sup.get(t)
                        if c is None:
                            fresh[t] = None
                        else:
                            sup[t] = c - 1
                            if c <= level:
                                low[t] = None
    return sorted(changed), rounds


def _fresh_metrics() -> dict[str, Any]:
    return {
        "edits_applied": 0,
        "dirty_nodes_total": 0,
        # always 0: rows are reused, nothing is compacted; the key stays
        # because the end-to-end benchmark harness reads it
        "compactions": 0,
        "dirty_nodes_per_batch": [],
        "reconverge_rounds_per_batch": [],
    }


class FlatDynamicKCore:
    """Maintains coreness of a mutating graph on flat arrays.

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
    ``compactions``, always 0, and the per-batch histograms);
    wall-clock lives in telemetry spans (``churn.apply_batch`` /
    ``kernel.reconverge``), never in the metrics dict.
    """

    def __init__(
        self,
        graph: "Graph | CSRGraph | DynamicCSRGraph | None" = None,
        *,
        telemetry=None,
    ) -> None:
        self._tracer = resolve_tracer(telemetry)
        self._scratch: list[int] = []
        self._pending: set[int] = set()
        self._coreness_cache: dict[int, int] | None = None
        self.metrics: dict[str, Any] = _fresh_metrics()
        self._batch_dirty = 0
        self._batch_rounds = 0
        csr = self._adopt(graph)
        self._graph = DynamicCSRGraph.from_csr(csr)
        self._est, order, later = batagelj_zaversnik_order(csr)
        self._order = KOrder.from_peel(self._est, order, later)

    def _adopt(self, graph) -> CSRGraph:
        """Boundary conversion of any accepted input to a CSR snapshot."""
        if graph is None:
            return CSRGraph(array("q", [0]), array("q"), array("q"))
        if isinstance(graph, DynamicCSRGraph):
            return graph.to_csr()
        if isinstance(graph, CSRGraph):
            return graph
        return CSRGraph.from_graph(graph)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DynamicCSRGraph:
        """The maintained dynamic CSR (mutate only through this class)."""
        return self._graph

    @property
    def coreness(self) -> dict[int, int]:
        """Current coreness of every node."""
        if self._coreness_cache is None:
            est = self._est
            self._coreness_cache = {
                node: est[row] for node, row in self._graph._index_of.items()
            }
        return self._coreness_cache

    def coreness_of(self, node: int) -> int:
        """Current coreness of one node, read without building the map."""
        row = self._graph._index_of.get(node)
        if row is None:
            raise NodeNotFoundError(node)
        return self._est[row]

    def core(self, k: int) -> set[int]:
        """Nodes of the current k-core."""
        return {u for u, c in self.coreness.items() if c >= k}

    def has_node(self, node: int) -> bool:
        return self._graph.has_node(node)

    def has_edge(self, u: int, v: int) -> bool:
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
        self._begin_batch()
        self._add_node(node)
        self._finish_batch()

    def insert_edge(self, u: int, v: int) -> None:
        """Insert edge {u, v}; creates missing endpoints."""
        self._begin_batch()
        self._insert(u, v)
        self._finish_batch()

    def delete_edge(self, u: int, v: int) -> None:
        """Delete edge {u, v} (endpoints stay)."""
        self._begin_batch()
        self._delete(u, v)
        self._finish_batch()

    def remove_node(self, node: int) -> None:
        """Remove a node and all its incident edges."""
        self._begin_batch()
        self._remove(node)
        self._finish_batch()

    # ------------------------------------------------------------------
    # batch API
    # ------------------------------------------------------------------
    def apply_events(self, events: Iterable) -> int:
        """Apply one churn batch; returns the primitive edits applied.

        Each :class:`~repro.workloads.churn.ChurnEvent` goes through
        :func:`~repro.workloads.churn.apply_event`, as in
        ``replay_trace`` and on the object oracle; deletes re-converge
        together up to the next insert or the batch's end. Each edit is
        counted in ``metrics["edits_applied"]`` where it is applied, as
        on the oracle. Coreness is exact when the call returns, and also
        when an event raises: the edits before the raise, that event's
        own included, are settled and counted before the exception
        propagates.
        """
        self._begin_batch()
        metrics = self.metrics
        before = metrics["edits_applied"]
        edits = self._edits
        try:
            with self._tracer.span("churn.apply_batch") as span:
                for event in events:
                    apply_event(edits, event)
                self._flush()
                span.note(edits=metrics["edits_applied"] - before)
        finally:
            self._finish_batch()
        return metrics["edits_applied"] - before

    @cached_property
    def _edits(self) -> SimpleNamespace:
        """The edits ``apply_event`` calls, minus the per-edit flush."""
        g = self._graph
        return SimpleNamespace(
            has_node=g.has_node, has_edge=g.has_edge, add_node=self._add_node,
            insert_edge=self._insert, remove_node=self._remove,
            delete_edge=self._delete)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _add_row(self, node: int) -> None:
        row = self._graph.add_node(node)
        if row == len(self._est):  # a reused row kept est 0 from _remove
            self._est.append(0)
        self._order.add_row(row)
        self._coreness_cache = None

    # the edits: each counts itself once it is applied
    def _add_node(self, node: int) -> None:
        self._add_row(node)
        self.metrics["edits_applied"] += 1

    def _insert(self, u: int, v: int) -> None:
        # OrderInsert needs exact coreness and an exact k-order: settle
        # pending delete-type dirt first
        self._flush()
        if u == v:
            raise EdgeError(f"self-loop on node {u} is not allowed")
        g = self._graph
        if not (g.has_node(u) and g.has_node(v)):
            # every new endpoint's id is checked before either is added
            for node in g.absent((u, v)):
                self._add_row(node)
        # a present edge raises here before anything changes, since
        # both its rows existed
        g.insert_edge(u, v)
        ru = g.row_of(u)
        rv = g.row_of(v)
        self._order_insert(ru, rv)
        self._coreness_cache = None
        self.metrics["edits_applied"] += 1

    def _delete(self, u: int, v: int) -> None:
        self._graph.delete_edge(u, v)
        ru = self._graph.row_of(u)
        rv = self._graph.row_of(v)
        label = self._order.label
        self._order.later[ru if label[ru] < label[rv] else rv] -= 1
        self._pending.add(ru)
        self._pending.add(rv)
        self._coreness_cache = None
        self.metrics["edits_applied"] += 1

    def _remove(self, node: int) -> None:
        row = self._graph.row_of(node)
        nbrs = self._graph.remove_node(node)
        order = self._order
        label, later = order.label, order.later
        mine = label[row]
        for t in nbrs:
            if label[t] < mine:
                later[t] -= 1
        order.unlink((row,))
        self._pending.discard(row)
        self._est[row] = 0
        self._pending.update(nbrs)
        self._coreness_cache = None
        self.metrics["edits_applied"] += 1

    def _order_insert(self, ru: int, rv: int) -> None:
        """Zhang et al.'s OrderInsert for the new edge ``ru``-``rv``.

        Moves the rows that rise, in k-order, to the head of the next
        level (``est`` included).

        The endpoint first in the k-order, ``u`` at level ``k``, gains
        a later neighbour; nothing rises unless that lifts its
        remaining degree above ``k``. Otherwise the level-``k`` rows
        after ``u`` are visited in order through a heap, each one only
        when a candidate before it reaches it. ``dstar`` counts a row's
        candidate neighbours (all before it), and a row whose ``dstar``
        plus remaining degree exceeds ``k`` becomes a candidate. A
        visited non-candidate absorbs its ``dstar`` into its remaining
        degree, since those candidates will sit after it, and each of
        them loses it as a later neighbour. A candidate whose support
        falls to ``k`` is evicted, cascading: it returns to level ``k``
        right after the visited row (evictees in eviction order), with
        its support as its remaining degree, and leaves the ``dstar``
        of later rows and the remaining degree of earlier candidates.
        Rows keep their labels until the visit ends, so the heap keys
        and every comparison stay valid. The surviving candidates are
        exactly the rows that rise, and each visited row's neighbours
        are scanned at most twice: on its visit and on its eviction.
        """
        order = self._order
        label, later = order.label, order.later
        est = self._est
        nbrs = self._graph.neighbors_rows
        if label[rv] < label[ru]:
            ru, rv = rv, ru
        later[ru] += 1
        k = est[ru]
        if later[ru] <= k:
            return
        cand: dict[int, int] = {}         # candidate -> dstar, in order
        dstar: dict[int, int] = {ru: 0}   # reached, not yet visited
        heap = [(label[ru], ru)]
        evicted: list[tuple[int, list[int]]] = []
        while heap:
            w = heappop(heap)[1]
            dw = dstar.pop(w)
            if dw + later[w] > k:
                cand[w] = dw
                lw = label[w]
                for t in nbrs(w):
                    if est[t] == k and label[t] > lw:
                        if t in dstar:
                            dstar[t] += 1
                        else:
                            dstar[t] = 1
                            heappush(heap, (label[t], t))
                continue
            if not dw:
                continue
            later[w] += dw
            stack = []
            for t in nbrs(w):
                if t in cand:
                    later[t] -= 1
                    if cand[t] + later[t] <= k:
                        stack.append(t)
            chain = []
            while stack:
                x = stack.pop()
                if x not in cand:
                    continue
                later[x] += cand.pop(x)
                chain.append(x)
                lx = label[x]
                for t in nbrs(x):
                    if t in cand:
                        if label[t] > lx:
                            cand[t] -= 1
                        else:
                            later[t] -= 1
                        if cand[t] + later[t] <= k:
                            stack.append(t)
                    elif t in dstar:
                        dstar[t] -= 1
            if chain:
                evicted.append((w, chain))
        risers = list(cand)
        order.unlink(risers)
        for at, chain in evicted:
            order.unlink(chain)
            order.insert_after(at, chain)
        order.prepend(k + 1, risers)
        for x in risers:
            est[x] = k + 1

    def _replace(self, changed: list[int]) -> None:
        """Re-place the rows whose level re-convergence lowered.

        Each moves to the tail of its new level. The rows landing on
        one level are peeled among themselves, so each has at most its
        new level of neighbours after it; such an order exists because
        the new levels are the coreness. A neighbour that stays put
        flips relative to a moved row only if it sat before the row and
        above the row's new level: it loses the row as a later
        neighbour (a moved neighbour's remaining degree is recounted
        anyway). So the cost is the moved rows and their neighbours.
        """
        nbrs = self._graph.rows
        order = self._order
        label, later = order.label, order.later
        est = self._est
        landing: dict[int, list[int]] = {}
        for x in changed:
            landing.setdefault(est[x], []).append(x)
        # every label compare happens before any row is placed: a
        # placement may relabel a level
        count: dict[int, int] = {}
        for k, rows in landing.items():
            group = set(rows) if len(rows) > 1 else ()
            for x in rows:
                lx = label[x]
                c = 0
                for t in nbrs[x]:
                    if est[t] > k:
                        c += 1
                        if label[t] < lx:
                            later[t] -= 1
                    elif t in group:
                        c += 1
                count[x] = c
        order.unlink(changed)
        for k, rows in landing.items():
            placed = rows
            if len(rows) > 1:
                # peel: place a row once at most k of its neighbours are
                # higher ones or rows of this level still to be placed
                left = set(rows)
                ready = [x for x in rows if count[x] <= k]
                placed = []
                while ready:
                    x = ready.pop()
                    left.discard(x)
                    placed.append(x)
                    for t in nbrs[x]:
                        if t in left:
                            count[t] -= 1
                            if count[t] == k:
                                ready.append(t)
            for x in placed:
                later[x] = count[x]
            order.extend(k, placed)

    def _flush(self) -> None:
        if self._pending:
            frontier = sorted(self._pending)
            self._pending.clear()
            self._reconverge(frontier)

    def _reconverge(self, frontier: list[int]) -> None:
        if not frontier:
            return
        with self._tracer.span(
            "kernel.reconverge", frontier=len(frontier)
        ) as span:
            changed, rounds = reconverge_from_bounds(
                self._graph.rows, self._est, frontier, self._scratch
            )
            span.note(changed=len(changed), rounds=rounds)
        if changed:
            self._replace(changed)
        self._coreness_cache = None
        self._batch_dirty += len(set(frontier) | set(changed))
        self._batch_rounds += rounds

    def _begin_batch(self) -> None:
        self._batch_dirty = 0
        self._batch_rounds = 0

    def _finish_batch(self) -> None:
        self._flush()
        m = self.metrics
        m["dirty_nodes_total"] += self._batch_dirty
        m["dirty_nodes_per_batch"].append(self._batch_dirty)
        m["reconverge_rounds_per_batch"].append(self._batch_rounds)

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise :class:`GraphError` if the k-order is broken.

        Test hook, like :meth:`DynamicCSRGraph.check_invariants`: every
        alive row is linked exactly once, into the list of its level,
        and no dead row is; labels strictly increase along each list
        and stay in their level's range, so ``(est, label)`` strictly
        increases along ``next``; and each remaining degree equals the
        row's live neighbours later in the order and is at most its
        level.
        """
        g = self._graph
        order = self._order
        label, later, est = order.label, order.later, self._est
        linked = bytearray(g.num_rows)
        for level in range(len(order.head)):
            last = -1
            for row in order.rows(level):
                if linked[row] or not g.alive[row]:
                    raise GraphError(f"row {row} linked twice or dead")
                linked[row] = 1
                if est[row] != level or label[row] >> SHIFT != level:
                    raise GraphError(f"row {row} linked into level {level}")
                if order.prev[row] != last or (
                    last >= 0 and label[row] <= label[last]
                ):
                    raise GraphError(f"row {row} out of order")
                last = row
            if order.tail[level] != last:
                raise GraphError(f"level {level}: tail drifted")
        for row in range(g.num_rows):
            if g.alive[row] != linked[row]:
                raise GraphError(f"alive row {row} not in the k-order")
            if not linked[row]:
                continue
            after = sum(
                1 for t in g.neighbors_rows(row) if label[t] > label[row]
            )
            if later[row] != after or after > est[row]:
                raise GraphError(
                    f"row {row}: remaining degree {later[row]}, "
                    f"{after} later neighbours, level {est[row]}"
                )

    def verify(self) -> bool:
        """Expensive check: maintained estimates equal recomputation."""
        csr = self._graph.to_csr()
        oracle = batagelj_zaversnik_csr(csr)
        est = self._est
        row_of = self._graph._index_of
        return all(
            est[row_of[csr.ids[i]]] == oracle[i]
            for i in range(csr.num_nodes)
        )
