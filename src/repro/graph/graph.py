"""Undirected simple-graph storage.

The whole library works on one concrete structure, :class:`Graph`: an
undirected simple graph (no self-loops, no parallel edges) over integer
node ids. Adjacency is a ``dict[int, set[int]]`` — the natural Python
fit for the access patterns here: neighbour iteration (the protocols),
membership tests (edge queries), and incremental mutation (the streaming
module).

A graph read from a SNAP file (:func:`repro.graph.io.read_edge_list`)
starts out holding the :class:`~repro.graph.csr.CSRGraph` its loader
built, and fills the sets from it only when a caller first needs them:
``nodes()``, ``num_nodes``, ``num_edges``, ``len()`` and ``in`` answer
without them, and :meth:`CSRGraph.from_graph` hands the held CSR back
until the first mutation drops it.

The paper's system model (Section 2) defines ``neighborV(u)``; the
:meth:`Graph.neighbors` method is exactly that function. Host-level views
(``neighborV(x)``, ``neighborH(x)``) live in :mod:`repro.core.assignment`.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import pairwise
from typing import TYPE_CHECKING, Collection, Iterable, Iterator

from repro.errors import EdgeError, GraphError, NodeNotFoundError

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph

__all__ = ["Graph"]


class Graph:
    """An undirected simple graph over integer node identifiers.

    Nodes are arbitrary (possibly non-contiguous) integers; edges are
    unordered pairs of distinct nodes. The class supports both bulk
    construction (:meth:`from_edges`) and incremental mutation
    (:meth:`add_edge` / :meth:`remove_edge`), the latter used by the
    streaming maintenance module.

    >>> g = Graph.from_edges([(0, 1), (1, 2)])
    >>> g.num_nodes, g.num_edges
    (3, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    def __init__(self, name: str = "") -> None:
        self._adj = {}
        self._num_edges: int = 0
        self.name = name
        # lazily filled {node: sorted neighbour tuple}; entries are
        # dropped on mutation of the node's neighbourhood
        self._sorted_cache: dict[int, tuple[int, ...]] = {}
        # a graph built by _from_csr holds its CSR and a separate node
        # view until its first mutation; every other graph has no CSR
        # and its node view is the adjacency dict itself
        self._csr: CSRGraph | None = None
        self._nodes: Collection[int] = self._adj

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        num_nodes: int | None = None,
        name: str = "",
    ) -> "Graph":
        """Build a graph from an edge iterable.

        Self-loops are dropped and duplicate edges collapse, matching how
        the paper ingests SNAP data ("undirected graphs have been
        transformed ... by considering both directions"). If ``num_nodes``
        is given, nodes ``0..num_nodes-1`` exist even when isolated.
        """
        graph = cls(name=name)
        if num_nodes is not None:
            for node in range(num_nodes):
                graph.add_node(node)
        for u, v in edges:
            if u == v:
                # a self-loop still testifies that the node exists
                graph.add_node(u)
                continue
            graph.add_edge(u, v, strict=False)
        return graph

    @classmethod
    def _from_csr(
        cls, csr: "CSRGraph", nodes: Collection[int], name: str = ""
    ) -> "Graph":
        """Wrap ``csr`` without building adjacency sets (bulk loaders).

        ``nodes`` holds ``csr.ids`` in the graph's node order (a
        ``range``, or a dict keyed in that order); it answers
        ``nodes()``, ``len()`` and ``in`` until the first mutation.
        """
        graph = cls.__new__(cls)  # no __init__: _adj stays unbuilt
        graph._num_edges = csr.num_edges
        graph.name = name
        graph._sorted_cache = {}
        graph._csr = csr
        graph._nodes = nodes
        return graph

    @cached_property
    def _adj(self) -> dict[int, set[int]]:
        # reached only by a graph built by _from_csr (__init__ sets _adj
        # on every other graph): fill the sets from the held CSR, once
        csr = self._csr
        assert csr is not None
        keys = list(csr.ids)  # one int object per node, shared by the sets
        flat = list(map(keys.__getitem__, csr.targets))
        rows = dict(zip(keys, [set(flat[lo:hi]) for lo, hi in pairwise(csr.offsets)]))
        return {u: rows[u] for u in self._nodes}

    def _drop_csr(self) -> None:
        """Before the first mutation of a CSR-backed graph: from now on
        the sets are the graph."""
        self._nodes = self._adj
        self._csr = None

    @classmethod
    def from_adjacency(
        cls, adjacency: dict[int, Iterable[int]], name: str = ""
    ) -> "Graph":
        """Build from ``{node: neighbours}``; symmetry is enforced."""
        graph = cls(name=name)
        for node in adjacency:
            graph.add_node(node)
        for u, neighbors in adjacency.items():
            for v in neighbors:
                if u != v:
                    graph.add_edge(u, v, strict=False)
        return graph

    def copy(self, name: str | None = None) -> "Graph":
        """Return an independent deep copy."""
        label = self.name if name is None else name
        if self._csr is not None:
            # the CSR and the node view are never mutated: share them
            return Graph._from_csr(self._csr, self._nodes, label)
        dup = Graph(name=label)
        dup._adj = {u: set(nbrs) for u, nbrs in self._adj.items()}
        dup._nodes = dup._adj
        dup._num_edges = self._num_edges
        return dup

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_node(self, node: int) -> None:
        """Ensure ``node`` exists (no-op if already present)."""
        if not isinstance(node, int):
            raise GraphError(f"node ids must be integers, got {node!r}")
        if self._csr is not None:
            self._drop_csr()
        self._adj.setdefault(node, set())

    def add_edge(self, u: int, v: int, strict: bool = True) -> bool:
        """Add undirected edge ``{u, v}``; creates endpoints as needed.

        With ``strict`` (default), re-adding an existing edge or adding a
        self-loop raises :class:`EdgeError`; otherwise duplicates are
        ignored and ``False`` is returned. Returns ``True`` when the edge
        was inserted.
        """
        if u == v:
            if strict:
                raise EdgeError(f"self-loop on node {u} is not allowed")
            return False
        self.add_node(u)  # drops a held CSR before anything changes
        self.add_node(v)
        if v in self._adj[u]:
            if strict:
                raise EdgeError(f"edge ({u}, {v}) already present")
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        if self._sorted_cache:
            self._sorted_cache.pop(u, None)
            self._sorted_cache.pop(v, None)
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Remove edge ``{u, v}``; raises :class:`EdgeError` if absent."""
        if self._csr is not None:
            self._drop_csr()
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeError(f"edge ({u}, {v}) is not in the graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        if self._sorted_cache:
            self._sorted_cache.pop(u, None)
            self._sorted_cache.pop(v, None)

    def remove_node(self, node: int) -> None:
        """Remove ``node`` and all incident edges."""
        if self._csr is not None:
            self._drop_csr()
        if node not in self._adj:
            raise NodeNotFoundError(node)
        for neighbor in self._adj[node]:
            self._adj[neighbor].discard(node)
            self._sorted_cache.pop(neighbor, None)
        self._num_edges -= len(self._adj[node])
        del self._adj[node]
        self._sorted_cache.pop(node, None)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes, the paper's ``N``."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, the paper's ``M``."""
        return self._num_edges

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids (insertion order)."""
        return iter(self._nodes)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over each undirected edge once, as ``(min, max)``."""
        for u, neighbors in self._adj.items():
            for v in neighbors:
                if u < v:
                    yield (u, v)

    def has_node(self, node: int) -> bool:
        return node in self._nodes

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, node: int) -> set[int]:
        """The paper's ``neighborV(u)``. Returned set must not be mutated."""
        try:
            return self._adj[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def sorted_neighbors(self, node: int) -> tuple[int, ...]:
        """``neighborV(u)`` as a sorted tuple, cached until mutation.

        The deterministic engines need a stable neighbour order per
        node; caching the sorted tuple here means repeated protocol
        runs over one graph sort each neighbourhood once instead of
        once per run.
        """
        cached = self._sorted_cache.get(node)
        if cached is None:
            cached = tuple(sorted(self.neighbors(node)))
            self._sorted_cache[node] = cached
        return cached

    def degree(self, node: int) -> int:
        """``d(u)`` — the initial coreness estimate in Algorithm 1."""
        return len(self.neighbors(node))

    def degrees(self) -> dict[int, int]:
        """``{node: degree}`` for all nodes."""
        return {u: len(nbrs) for u, nbrs in self._adj.items()}

    def max_degree(self) -> int:
        """The paper's ``Δ`` (0 for an empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    def min_degree(self) -> int:
        """Minimal degree ``δ``; nodes at δ converge in round 1 (Thm 5 i)."""
        if not self._adj:
            return 0
        return min(len(nbrs) for nbrs in self._adj.values())

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[int]) -> "Graph":
        """Induced subgraph ``G(C)`` from Definition 1."""
        keep = set(nodes)
        missing = keep - self._adj.keys()
        if missing:
            raise NodeNotFoundError(sorted(missing)[0])
        sub = Graph(name=f"{self.name}|induced" if self.name else "")
        for node in keep:
            sub.add_node(node)
        for u in keep:
            for v in self._adj[u]:
                if v in keep and u < v:
                    sub.add_edge(u, v)
        return sub

    def relabeled(self) -> tuple["Graph", dict[int, int]]:
        """Return a copy with nodes renumbered ``0..N-1`` plus the mapping.

        The one-to-many modulo assignment policy (Section 3.2.2) assumes
        contiguous ids; loaders use this to normalise arbitrary files.
        """
        mapping = {node: idx for idx, node in enumerate(sorted(self._adj))}
        out = Graph(name=self.name)
        for node in mapping.values():
            out.add_node(node)
        for u, v in self.edges():
            out.add_edge(mapping[u], mapping[v])
        return out, mapping

    def shuffled(self, seed: int | random.Random | None = 0) -> "Graph":
        """Return a copy with node ids randomly permuted (same topology).

        Useful for checking that assignment policies do not silently rely
        on generator-specific id layouts.
        """
        rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        ids = list(self._adj)
        permuted = list(ids)
        rng.shuffle(permuted)
        mapping = dict(zip(ids, permuted))
        out = Graph(name=self.name)
        for node in mapping.values():
            out.add_node(node)
        for u, v in self.edges():
            out.add_edge(mapping[u], mapping[v])
        return out

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: object) -> bool:
        return node in self._nodes

    def __iter__(self) -> Iterator[int]:
        return iter(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Graph{label} nodes={self.num_nodes} edges={self.num_edges}>"
        )
