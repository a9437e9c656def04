"""Dynamic k-core maintenance.

Correctness argument (why warm-starting is exact, not heuristic):
the coreness function is the **greatest fixpoint** of the locality
operator ``T(f)(u) = computeIndex([f(v) for v in N(u)], f(u))`` — that
is precisely the paper's Theorem 1 read as a fixpoint characterisation.
Iterating ``T`` from *any* pointwise upper bound of the true coreness
converges to the coreness itself (the iteration is monotone
non-increasing and can never cross below a fixpoint). The distributed
algorithm is this iteration started from the degrees; the maintenance
engine starts it from much tighter bounds:

* **deletion** — coreness can only decrease, so the *old* coreness is
  already an upper bound; re-converge with the two endpoints dirty.
* **insertion** — a single edge can raise coreness by at most one, and
  only for nodes of the endpoints' *subcore* (the connected region of
  nodes with coreness equal to the lower endpoint's, reachable through
  such nodes — the classic traversal-insertion result). Bump exactly
  that candidate set by one and re-converge.

Both cases touch only the affected region, typically a tiny fraction of
the graph; the property tests verify exact agreement with from-scratch
recomputation under random edit sequences.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping

from repro.baselines.batagelj_zaversnik import batagelj_zaversnik
from repro.core.compute_index import improve_estimate_worklist
from repro.errors import EdgeError, GraphError
from repro.graph.graph import Graph

__all__ = ["DynamicKCore"]


class _AdjacencyView(Mapping):
    """Read-only ``{node: neighbours}`` view over a live graph."""

    __slots__ = ("_graph",)

    def __init__(self, graph: Graph) -> None:
        self._graph = graph

    def __getitem__(self, node: int):
        return self._graph.neighbors(node)

    def __iter__(self):
        return iter(self._graph.nodes())

    def __len__(self) -> int:
        return self._graph.num_nodes


class DynamicKCore:
    """Maintains the coreness of a mutating graph.

    >>> engine = DynamicKCore()
    >>> engine.insert_edge(0, 1)
    >>> engine.coreness[0]
    1

    The mutating API mirrors :class:`~repro.graph.graph.Graph`; the
    maintained map is exposed as :attr:`coreness` (read-only by
    convention). :attr:`touched_last_op` reports how many nodes the last
    operation re-evaluated — the locality win measured by the
    ``bench_streaming`` benchmark.
    """

    def __init__(self, graph: Graph | None = None) -> None:
        self._graph = graph.copy() if graph is not None else Graph()
        self._coreness: dict[int, int] = batagelj_zaversnik(self._graph)
        self._adjacency = _AdjacencyView(self._graph)
        self.touched_last_op = 0
        #: registry-validated maintenance-cost counters (same keys the
        #: flat engine emits, minus the CSR-only ones)
        self.metrics: dict = {
            "edits_applied": 0,
            "dirty_nodes_total": 0,
            "dirty_nodes_per_batch": [],
        }

    def _account(self, edits: int = 1) -> None:
        self.metrics["edits_applied"] += edits
        self.metrics["dirty_nodes_total"] += self.touched_last_op
        self.metrics["dirty_nodes_per_batch"].append(self.touched_last_op)

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The maintained graph (mutate only through this class)."""
        return self._graph

    @property
    def coreness(self) -> dict[int, int]:
        """Current coreness of every node."""
        return self._coreness

    def core(self, k: int) -> set[int]:
        """Nodes of the current k-core."""
        return {u for u, c in self._coreness.items() if c >= k}

    def has_node(self, node: int) -> bool:
        """Whether ``node`` is in the maintained graph."""
        return self._graph.has_node(node)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether edge ``{u, v}`` is in the maintained graph."""
        return self._graph.has_edge(u, v)

    # ------------------------------------------------------------------
    def _subcore(self, roots: Iterable[int], level: int) -> set[int]:
        """Nodes with coreness == level connected to roots through such
        nodes (the insertion candidate set)."""
        result: set[int] = set()
        queue = deque(r for r in roots if self._coreness[r] == level)
        result.update(queue)
        while queue:
            u = queue.popleft()
            for v in self._graph.neighbors(u):
                if v not in result and self._coreness[v] == level:
                    result.add(v)
                    queue.append(v)
        return result

    def _reconverge(self, upper_bound: dict[int, int], dirty: set[int]) -> None:
        """Iterate the locality operator from ``upper_bound`` to fixpoint."""
        changed: set[int] = set()
        improve_estimate_worklist(
            upper_bound,
            self._graph.nodes(),
            self._adjacency,
            changed,
            dirty=sorted(dirty),
        )
        self.touched_last_op = len(dirty | changed)
        self._coreness = upper_bound

    # ------------------------------------------------------------------
    def add_node(self, node: int) -> None:
        """Add an isolated node (coreness 0)."""
        if self._graph.has_node(node):
            raise GraphError(f"node {node} already present")
        self._graph.add_node(node)
        self._coreness[node] = 0
        self.touched_last_op = 1
        self._account()

    def insert_edge(self, u: int, v: int) -> None:
        """Insert edge {u, v}; creates missing endpoints."""
        if u == v:
            raise EdgeError(f"self-loop on node {u} is not allowed")
        for node in (u, v):
            if not self._graph.has_node(node):
                self._graph.add_node(node)
                self._coreness[node] = 0
        if self._graph.has_edge(u, v):
            raise EdgeError(f"edge ({u}, {v}) already present")
        self._graph.add_edge(u, v)

        level = min(self._coreness[u], self._coreness[v])
        roots = [w for w in (u, v) if self._coreness[w] == level]
        candidates = self._subcore(roots, level)
        estimate = dict(self._coreness)
        for c in candidates:
            estimate[c] = level + 1
        # the endpoints themselves must also be re-evaluated even when
        # they are not candidates (their neighbourhood grew)
        self._reconverge(estimate, candidates | {u, v})
        self._account()

    def delete_edge(self, u: int, v: int) -> None:
        """Delete edge {u, v} (endpoints stay)."""
        self._graph.remove_edge(u, v)
        # old coreness upper-bounds the new one; re-converge locally
        self._reconverge(dict(self._coreness), {u, v})
        self._account()

    def remove_node(self, node: int) -> None:
        """Remove a node and all its incident edges."""
        neighbors = sorted(self._graph.neighbors(node))
        for v in neighbors:
            self._graph.remove_edge(node, v)
        self._graph.remove_node(node)
        del self._coreness[node]
        if neighbors:
            self._reconverge(dict(self._coreness), set(neighbors))
        else:
            self.touched_last_op = 0
        self._account()

    # ------------------------------------------------------------------
    def verify(self) -> bool:
        """Expensive check: maintained map equals recomputation."""
        return self._coreness == batagelj_zaversnik(self._graph)
