"""Compressed sparse row (CSR) graph storage.

:class:`Graph` stores adjacency as ``dict[int, set[int]]`` — ideal for
mutation and membership tests, but every neighbour visit chases a dict
entry and a set iterator, and every node costs several Python objects.
:class:`CSRGraph` is the complementary *read-optimised* representation:
all adjacency lives in two flat stdlib ``array`` buffers,

* ``offsets`` — ``n + 1`` indices; node ``i``'s neighbours occupy
  ``targets[offsets[i]:offsets[i + 1]]``;
* ``targets`` — ``2m`` compact neighbour indices, sorted within each
  slice.

Node ids are *compacted*: original (possibly non-contiguous) ids are
sorted ascending and mapped to ``0..n-1``; ``ids[i]`` recovers the
original id and :meth:`index` maps back. Because the compaction is
sorted, iterating compact indices ``0..n-1`` visits nodes in ascending
original-id order — exactly the deterministic activation order of the
lockstep engine, which is what lets the flat protocol engine
(:mod:`repro.sim.flat_engine`) and the array Batagelj–Zaveršnik baseline
run straight over a ``CSRGraph`` with no per-node translation.

The structure is immutable by convention: builders produce it, engines
read it. Mutation workloads stay on :class:`Graph` and convert with
:meth:`from_graph` / :meth:`to_graph` at the boundary.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from typing import Iterable, Iterator

from repro.errors import GraphError, NodeNotFoundError
from repro.graph.graph import Graph

__all__ = ["CSRGraph"]


class CSRGraph:
    """An immutable undirected simple graph in compressed sparse row form.

    >>> csr = CSRGraph.from_edges([(0, 1), (1, 2)])
    >>> csr.num_nodes, csr.num_edges
    (3, 2)
    >>> list(csr.neighbors(1))
    [0, 2]
    """

    __slots__ = (
        "offsets",
        "targets",
        "ids",
        "_index_of",
        "_mirror",
        "_edge_owners",
        "name",
    )

    def __init__(
        self,
        offsets: array,
        targets: array,
        ids: array,
        name: str = "",
    ) -> None:
        self.offsets = offsets
        self.targets = targets
        self.ids = ids
        self.name = name
        self._index_of: dict[int, int] | None = None
        self._mirror: array | None = None
        self._edge_owners: array | None = None

    # ------------------------------------------------------------------
    # pickling — a CSRGraph crosses process boundaries (the
    # multi-process sharded engine ships graph structure to workers), so
    # the wire format is explicit: the three immutable buffers plus the
    # name. The lazy caches (_index_of / _mirror / _edge_owners) are
    # derived data; dropping them keeps payloads minimal and they
    # rebuild on first use in the receiving process.
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple:
        return (self.offsets, self.targets, self.ids, self.name)

    def __setstate__(self, state: tuple) -> None:
        self.offsets, self.targets, self.ids, self.name = state
        self._index_of = None
        self._mirror = None
        self._edge_owners = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph, name: str | None = None) -> "CSRGraph":
        """Compact a :class:`Graph`; nodes are ordered by ascending id."""
        node_ids = sorted(graph.nodes())
        ids = array("q", node_ids)
        n = len(node_ids)
        contiguous = n == 0 or (node_ids[0] == 0 and node_ids[-1] == n - 1)
        index_of = (
            None if contiguous else {u: i for i, u in enumerate(node_ids)}
        )
        rows = list(map(graph.neighbors, node_ids))
        offsets = array("q", accumulate(map(len, rows), initial=0))
        if index_of is not None:
            rows = [map(index_of.__getitem__, nbrs) for nbrs in rows]
        targets = array("q", chain.from_iterable(map(sorted, rows)))
        csr = cls(offsets, targets, ids, name=graph.name if name is None else name)
        if index_of is not None:
            csr._index_of = index_of
        return csr

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        num_nodes: int | None = None,
        name: str = "",
    ) -> "CSRGraph":
        """Build from an edge iterable without a :class:`Graph` detour.

        Semantics match :meth:`Graph.from_edges`: self-loops are dropped
        (but still testify that the node exists), duplicate edges
        collapse, and ``num_nodes`` forces ``0..num_nodes-1`` to exist
        even when isolated.
        """
        node_set: set[int] = set()
        pairs: list[tuple[int, int]] = []
        for u, v in edges:
            if not isinstance(u, int) or not isinstance(v, int):
                raise GraphError(f"node ids must be integers, got ({u!r}, {v!r})")
            if u == v:
                node_set.add(u)
                continue
            node_set.add(u)
            node_set.add(v)
            pairs.append((u, v) if u < v else (v, u))
        if num_nodes is not None:
            node_set.update(range(num_nodes))
        node_ids = sorted(node_set)
        ids = array("q", node_ids)
        index_of = {u: i for i, u in enumerate(node_ids)}
        n = len(node_ids)
        # both directions, compacted, sorted, deduplicated
        directed = sorted(
            {(index_of[u], index_of[v]) for u, v in pairs}
            | {(index_of[v], index_of[u]) for u, v in pairs}
        )
        offsets = array("q", [0] * (n + 1))
        targets = array("q", [0] * len(directed))
        for e, (src, dst) in enumerate(directed):
            offsets[src + 1] += 1
            targets[e] = dst
        for i in range(n):
            offsets[i + 1] += offsets[i]
        csr = cls(offsets, targets, ids, name=name)
        csr._index_of = index_of
        return csr

    def to_graph(self, name: str | None = None) -> Graph:
        """Round-trip back to a mutable :class:`Graph` (original ids)."""
        graph = Graph(name=self.name if name is None else name)
        ids = self.ids
        for u in ids:
            graph.add_node(u)
        offsets, targets = self.offsets, self.targets
        for i in range(len(ids)):
            u = ids[i]
            for e in range(offsets[i], offsets[i + 1]):
                j = targets[e]
                if i < j:
                    graph.add_edge(u, ids[j])
        return graph

    # ------------------------------------------------------------------
    # queries (compact-index based)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return len(self.targets) // 2

    def node_id(self, i: int) -> int:
        """Original id of compact index ``i``."""
        return self.ids[i]

    def index(self, node: int) -> int:
        """Compact index of original id ``node``."""
        if self._index_of is None:
            self._index_of = {u: i for i, u in enumerate(self.ids)}
        try:
            return self._index_of[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, i: int) -> int:
        """Degree of compact index ``i``."""
        return self.offsets[i + 1] - self.offsets[i]

    def neighbors_slice(self, i: int) -> tuple[int, int]:
        """``(start, end)`` bounds of node ``i``'s slice in ``targets``."""
        return self.offsets[i], self.offsets[i + 1]

    def neighbors(self, i: int) -> array:
        """Compact neighbour indices of node ``i`` (sorted ascending)."""
        return self.targets[self.offsets[i]:self.offsets[i + 1]]

    def max_degree(self) -> int:
        """The paper's ``Δ`` (0 for an empty graph)."""
        offsets = self.offsets
        return max(
            (offsets[i + 1] - offsets[i] for i in range(len(self.ids))),
            default=0,
        )

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected edge once, as compact ``(min, max)`` pairs."""
        offsets, targets = self.offsets, self.targets
        for i in range(len(self.ids)):
            for e in range(offsets[i], offsets[i + 1]):
                j = targets[e]
                if i < j:
                    yield (i, j)

    # ------------------------------------------------------------------
    # derived flat structures (cached; used by the flat engines)
    # ------------------------------------------------------------------
    def edge_owners(self) -> array:
        """``owner[e]`` — the compact node whose slice contains edge ``e``."""
        if self._edge_owners is None:
            owners = array("q", [0]) * len(self.targets)
            offsets = self.offsets
            for i in range(len(self.ids)):
                lo = offsets[i]
                hi = offsets[i + 1]
                if hi > lo:
                    owners[lo:hi] = array("q", [i]) * (hi - lo)
            self._edge_owners = owners
        return self._edge_owners

    def mirror(self) -> array:
        """``mirror[e]`` — index of the reverse directed edge of ``e``.

        If ``e`` sits in ``u``'s slice and points at ``v``, ``mirror[e]``
        sits in ``v``'s slice and points back at ``u``. Built in one
        O(m) cursor pass: scanning edges in (owner, target) order visits
        the in-edges of each node ``v`` with owners ascending — exactly
        ``v``'s (sorted) slice order — so each reverse position is the
        next unfilled slot of ``v``'s slice.
        """
        if self._mirror is None:
            offsets, targets = self.offsets, self.targets
            mirror = array("q", [0]) * len(targets)
            cursor = array("q", offsets[:len(self.ids)])
            for e, v in enumerate(targets):
                slot = cursor[v]
                cursor[v] = slot + 1
                mirror[e] = slot
            self._mirror = mirror
        return self._mirror

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<CSRGraph{label} nodes={self.num_nodes} edges={self.num_edges}>"
        )
