"""Mutable row storage for streaming maintenance.

:class:`~repro.graph.csr.CSRGraph` is immutable by design — builders
produce it, engines read it. Streaming maintenance needs the opposite:
a graph that absorbs churn one edge at a time while the engine keeps
row-indexed tables (estimates, the k-order) beside it.
:class:`DynamicCSRGraph` is that structure: one ``array('q')`` per row
holding the row's live neighbour rows in insertion order.

* an edge insert appends one entry to each endpoint's array;
* an edge delete removes one entry from each endpoint's array;
* a node removal detaches the row's array, removes the row from each
  neighbour's array and puts the row on a free list; the next
  :meth:`~DynamicCSRGraph.add_node` reuses the last freed row (LIFO)
  before it appends a new one.

Row indices (``0..num_rows-1``) are the engine-facing node handles.
They stay stable for as long as the node is present, and a removed
node's row is handed to a later join, so the row count grows only past
the peak live node count and nothing needs reclaiming. A freed row's
array is empty and it never appears in another row's array.
:meth:`~DynamicCSRGraph.to_csr` is the canonical snapshot (rows by
ascending id, slices sorted) that oracles compare against.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import EdgeError, GraphError, NodeNotFoundError
from repro.graph.csr import CSRGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.graph import Graph

__all__ = ["DynamicCSRGraph"]


class DynamicCSRGraph:
    """A mutable graph: one neighbour array per row, freed rows reused.

    >>> g = DynamicCSRGraph.from_edges([(0, 1), (1, 2)])
    >>> g.insert_edge(0, 2)
    >>> g.delete_edge(0, 1)
    >>> sorted(g.neighbors(2))
    [0, 1]
    """

    __slots__ = ("rows", "ids", "alive", "num_edges", "name",
                 "_index_of", "_free")

    def __init__(self, name: str = "") -> None:
        #: each row's live neighbour rows, in insertion order
        self.rows: list[array] = []
        self.ids = array("q")
        self.alive = bytearray()
        self.num_edges = 0
        self.name = name
        self._index_of: dict[int, int] = {}
        #: freed rows; the last one freed is reused first
        self._free: list[int] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, csr: CSRGraph) -> "DynamicCSRGraph":
        """Build from an immutable CSR (row i keeps csr's compact id i)."""
        g = cls(name=csr.name)
        n = csr.num_nodes
        bounds, flat = csr.offsets, csr.targets
        g.rows = [flat[bounds[i]:bounds[i + 1]] for i in range(n)]
        g.ids = array("q", csr.ids)
        g.alive = bytearray(b"\x01") * n
        g.num_edges = csr.num_edges
        g._index_of = {csr.ids[i]: i for i in range(n)}
        return g

    @classmethod
    def from_graph(cls, graph: "Graph") -> "DynamicCSRGraph":
        """Build from a mutable object :class:`Graph`."""
        return cls.from_csr(CSRGraph.from_graph(graph))

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "DynamicCSRGraph":
        """Build from an edge list (see :meth:`CSRGraph.from_edges`)."""
        return cls.from_csr(CSRGraph.from_edges(edges))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Rows allocated (alive + free)."""
        return len(self.rows)

    @property
    def num_nodes(self) -> int:
        return len(self._index_of)

    def has_node(self, node: int) -> bool:
        return node in self._index_of

    def absent(self, nodes: Iterable[int]) -> list[int]:
        """The ``nodes`` not present, in order. Each is checked first:
        an id that is not a signed 64-bit integer raises
        :class:`GraphError` naming it, so a caller adding them adds
        every one or none."""
        missing = [node for node in nodes if node not in self._index_of]
        for node in missing:
            try:
                array("q", (node,))
            except (OverflowError, TypeError):
                raise GraphError(
                    f"node id {node!r} is not a signed 64-bit integer"
                ) from None
        return missing

    def row_of(self, node: int) -> int:
        """Row of an original node id."""
        try:
            return self._index_of[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def nodes(self) -> Iterator[int]:
        """Alive original ids, ascending."""
        return iter(sorted(self._index_of))

    def degree(self, node: int) -> int:
        return len(self.rows[self.row_of(node)])

    def neighbors_rows(self, row: int) -> array:
        """The live neighbour rows of ``row``, in insertion order: the
        row's own array, which callers must not mutate."""
        return self.rows[row]

    def neighbors(self, node: int) -> list[int]:
        """Live neighbour ids of ``node``, ascending."""
        return sorted(map(self.ids.__getitem__, self.rows[self.row_of(node)]))

    def has_edge(self, u: int, v: int) -> bool:
        index_of = self._index_of
        if u not in index_of or v not in index_of:
            return False
        return index_of[v] in self.rows[index_of[u]]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Live edges as (min_id, max_id) pairs, unordered."""
        ids = self.ids
        for row, nbrs in enumerate(self.rows):
            for t in nbrs:
                if row < t:
                    a, b = ids[row], ids[t]
                    yield (a, b) if a <= b else (b, a)

    # ------------------------------------------------------------------
    # node edits
    # ------------------------------------------------------------------
    def add_node(self, node: int) -> int:
        """Give ``node`` an isolated row, the last freed one if any;
        returns the row. An id that is not a signed 64-bit integer
        raises :class:`GraphError` naming it (:meth:`absent`), with
        nothing changed."""
        if not self.absent((node,)):
            raise GraphError(f"node {node} already present")
        if self._free:
            row = self._free.pop()
            self.ids[row] = node
            self.alive[row] = 1
        else:
            row = len(self.rows)
            self.ids.append(node)
            self.rows.append(array("q"))
            self.alive.append(1)
        self._index_of[node] = row
        return row

    def remove_node(self, node: int) -> array:
        """Remove ``node`` and its incident edges; returns the former
        neighbour rows (the dirty set for maintenance engines).

        The row's array is detached and returned, the row is removed
        from each neighbour's array, and the row goes on the free list.
        """
        row = self.row_of(node)
        rows = self.rows
        nbrs = rows[row]
        rows[row] = array("q")
        for t in nbrs:
            rows[t].remove(row)
        self.num_edges -= len(nbrs)
        self.alive[row] = 0
        del self._index_of[node]
        self._free.append(row)
        return nbrs

    # ------------------------------------------------------------------
    # edge edits
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> None:
        """Insert edge ``{u, v}``; creates missing endpoints.

        Self-loops and present edges raise
        :class:`~repro.errors.EdgeError`, and a missing endpoint that
        cannot be stored :class:`GraphError`, before anything mutates.
        Each endpoint's array gains the other row at its end.
        """
        if u == v:
            raise EdgeError(f"self-loop ({u}, {v}) rejected")
        if self.has_edge(u, v):
            raise EdgeError(f"edge ({u}, {v}) already present")
        index_of = self._index_of
        if u not in index_of or v not in index_of:
            for node in self.absent((u, v)):
                self.add_node(node)
        ru, rv = self._index_of[u], self._index_of[v]
        self.rows[ru].append(rv)
        self.rows[rv].append(ru)
        self.num_edges += 1

    def delete_edge(self, u: int, v: int) -> None:
        """Delete edge ``{u, v}`` (endpoints stay); the removal from
        ``u``'s row finds it. A missing edge or endpoint raises
        :class:`~repro.errors.EdgeError`, with nothing changed."""
        index_of = self._index_of
        try:
            ru, rv = index_of[u], index_of[v]
            self.rows[ru].remove(rv)
        except (KeyError, ValueError):
            raise EdgeError(f"edge ({u}, {v}) not present") from None
        self.rows[rv].remove(ru)
        self.num_edges -= 1

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def to_csr(self) -> CSRGraph:
        """An immutable snapshot in canonical CSR form.

        Includes isolated alive nodes; rows are renumbered by ascending
        original id exactly like :meth:`CSRGraph.from_graph`.
        """
        node_ids = sorted(self._index_of)
        order = list(map(self._index_of.__getitem__, node_ids))
        remap = array("q", [-1]) * len(self.rows)
        for i, row in enumerate(order):
            remap[row] = i
        rows = [self.rows[row] for row in order]
        offsets = array("q", accumulate(map(len, rows), initial=0))
        flat = array("q", chain.from_iterable(
            sorted(map(remap.__getitem__, nbrs)) for nbrs in rows
        ))
        return CSRGraph(offsets, flat, array("q", node_ids), name=self.name)

    def to_graph(self) -> "Graph":
        """An object-graph snapshot (for oracles and tests)."""
        from repro.graph.graph import Graph

        g = Graph(name=self.name)
        for node in sorted(self._index_of):
            g.add_node(node)
        for u, v in self.edges():
            g.add_edge(u, v)
        return g

    def check_invariants(self) -> None:
        """Raise :class:`GraphError` if the rows are inconsistent.

        Test hook: every alive row's array is symmetric with its
        neighbours' and holds no repeat and no self-loop, every dead row
        is empty and on the free list exactly once (and no alive row
        is), the id index names exactly the alive rows, and
        :attr:`num_edges` is half the entries.
        """
        rows, alive = self.rows, self.alive
        if not len(rows) == len(self.ids) == len(alive):
            raise GraphError("row tables differ in length")
        free = set(self._free)
        if len(free) != len(self._free):
            raise GraphError("a row is freed twice")
        entries = 0
        for row, nbrs in enumerate(rows):
            if not alive[row]:
                if row not in free or nbrs:
                    raise GraphError(f"dead row {row} not empty and free")
                continue
            if row in free:
                raise GraphError(f"alive row {row} is on the free list")
            if self._index_of.get(self.ids[row]) != row:
                raise GraphError(f"row {row}: id index drifted")
            if row in nbrs or len(set(nbrs)) != len(nbrs):
                raise GraphError(f"row {row}: self-loop or repeated entry")
            for t in nbrs:
                if not alive[t] or row not in rows[t]:
                    raise GraphError(f"edge ({row}, {t}) not symmetric")
            entries += len(nbrs)
        if len(self._index_of) + len(free) != len(rows):
            raise GraphError("id index does not cover the alive rows")
        if entries != 2 * self.num_edges:
            raise GraphError(
                f"edge count drifted: {self.num_edges} != {entries} / 2"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DynamicCSRGraph n={self.num_nodes} m={self.num_edges} "
            f"rows={self.num_rows} free={len(self._free)}>"
        )
