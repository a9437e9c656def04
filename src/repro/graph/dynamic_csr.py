"""Mutable CSR storage for streaming maintenance.

:class:`~repro.graph.csr.CSRGraph` is immutable by design — builders
produce it, engines read it. Streaming maintenance needs the opposite:
a graph that absorbs edge churn *without* leaving flat storage, so the
warm-start re-convergence kernel can run over the same ``array('q')``
buffers the edits just wrote. :class:`DynamicCSRGraph` is that
structure. Three deliberate deviations from the immutable layout:

* **per-node capacity slack** — every node owns a slot *region*
  ``targets[starts[row] : starts[row] + caps[row]]`` that is larger
  than its degree, so a typical insertion is a single slot write. A
  full region is relocated to the end of the buffer with doubled
  capacity (amortised O(1), like a growable vector per node).
* **edge-slot tombstones** — deletion writes the sentinel
  :data:`TOMBSTONE` (``-1``) into the two slots of the edge instead of
  shifting the region. Readers skip negative slots; the region keeps
  its layout, so a deletion is two slot writes.
* **deterministic periodic compaction** — tombstoned and abandoned
  slots are garbage. When the garbage crosses a fixed ratio of the
  live slots (:attr:`needs_compaction`), :meth:`compact` rebuilds the
  whole structure in the canonical immutable layout (rows sorted by
  original id, slices sorted ascending, fresh slack) and returns the
  old-row -> new-row mapping so engines can permute their state
  tables. The trigger depends only on the edit sequence — never on
  wall-clock or allocator state — so replays compact at identical
  points.

Row indices (``0..num_rows-1``) are the kernel-facing node handles:
stable across edits, invalidated only by :meth:`compact` (which
reports the permutation). Removed nodes leave a dead row behind until
the next compaction; dead rows have no live slots and never appear as
targets.

Structural edits are plain slot writes on those buffers, one edge at a
time (:meth:`insert_edge` / :meth:`delete_edge`, :meth:`remove_node`
for a node and its edges): each touches a handful of slots, which no
kernel dispatch or vectorised scatter makes cheaper.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import EdgeError, GraphError, NodeNotFoundError
from repro.graph.csr import CSRGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.graph import Graph

__all__ = ["DynamicCSRGraph", "TOMBSTONE"]

#: Sentinel written into a deleted edge's slots; readers skip it.
TOMBSTONE = -1

#: Smallest slot region allocated to any node.
_MIN_CAP = 4

#: Compaction fires when ``2 * garbage > live_slots + _GARBAGE_GRACE``
#: — the grace keeps tiny graphs from compacting on every other edit.
_GARBAGE_GRACE = 64


def _slack_for(degree: int) -> int:
    """Capacity given to a node at (re)build time: 25% headroom."""
    return max(_MIN_CAP, degree + (degree >> 2) + 1)


class DynamicCSRGraph:
    """A mutable CSR with slack, tombstones and periodic compaction.

    >>> g = DynamicCSRGraph.from_edges([(0, 1), (1, 2)])
    >>> g.insert_edge(0, 2)
    >>> g.delete_edge(0, 1)
    >>> sorted(g.neighbors(2))
    [0, 1]
    """

    __slots__ = (
        "starts",
        "caps",
        "used",
        "live",
        "ids",
        "alive",
        "targets",
        "_index_of",
        "_tombstones",
        "_abandoned",
        "_live_slots",
        "compactions",
        "name",
    )

    def __init__(self, name: str = "") -> None:
        self.starts = array("q")
        self.caps = array("q")
        self.used = array("q")
        self.live = array("q")
        self.ids = array("q")
        self.alive = bytearray()
        self.targets = array("q")
        self._index_of: dict[int, int] = {}
        self._tombstones = 0
        self._abandoned = 0
        self._live_slots = 0
        self.compactions = 0
        self.name = name

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, csr: CSRGraph) -> "DynamicCSRGraph":
        """Build from an immutable CSR (row i keeps csr's compact id i)."""
        g = cls(name=csr.name)
        n = csr.num_nodes
        g.ids = array("q", csr.ids)
        g.alive = bytearray(b"\x01") * n if n else bytearray()
        g._index_of = {csr.ids[i]: i for i in range(n)}
        g.starts = array("q", [0]) * n
        g.caps = array("q", [0]) * n
        g.used = array("q", [0]) * n
        g.live = array("q", [0]) * n
        cursor = 0
        for i in range(n):
            lo, hi = csr.offsets[i], csr.offsets[i + 1]
            deg = hi - lo
            cap = _slack_for(deg)
            g.starts[i] = cursor
            g.caps[i] = cap
            g.used[i] = deg
            g.live[i] = deg
            cursor += cap
        g.targets = array("q", [TOMBSTONE]) * cursor
        for i in range(n):
            lo, hi = csr.offsets[i], csr.offsets[i + 1]
            s = g.starts[i]
            g.targets[s:s + (hi - lo)] = csr.targets[lo:hi]
        g._live_slots = len(csr.targets)
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
        """Rows allocated (alive + dead-until-compaction)."""
        return len(self.ids)

    @property
    def num_nodes(self) -> int:
        return len(self._index_of)

    @property
    def num_edges(self) -> int:
        return self._live_slots // 2

    @property
    def garbage_slots(self) -> int:
        """Tombstoned slots plus slots of abandoned (relocated) regions."""
        return self._tombstones + self._abandoned

    @property
    def needs_compaction(self) -> bool:
        """Deterministic trigger: garbage outweighs live slots."""
        return 2 * self.garbage_slots > self._live_slots + _GARBAGE_GRACE

    def has_node(self, node: int) -> bool:
        return node in self._index_of

    def row_of(self, node: int) -> int:
        """Compact row of an original node id."""
        try:
            return self._index_of[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def node_id(self, row: int) -> int:
        return self.ids[row]

    def nodes(self) -> Iterator[int]:
        """Alive original ids, ascending."""
        return iter(sorted(self._index_of))

    def degree(self, node: int) -> int:
        return self.live[self.row_of(node)]

    def neighbors_rows(self, row: int) -> list[int]:
        """Live neighbour rows of ``row`` (slot order)."""
        s = self.starts[row]
        return [t for t in self.targets[s:s + self.used[row]] if t >= 0]

    def neighbors(self, node: int) -> list[int]:
        """Live neighbour ids of ``node``, ascending."""
        ids = self.ids
        return sorted(ids[t] for t in self.neighbors_rows(self.row_of(node)))

    def has_edge(self, u: int, v: int) -> bool:
        if u not in self._index_of or v not in self._index_of:
            return False
        ru, rv = self._index_of[u], self._index_of[v]
        s = self.starts[ru]
        return rv in self.targets[s:s + self.used[ru]]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Live edges as (min_id, max_id) pairs, unordered."""
        ids = self.ids
        for row in range(len(ids)):
            if not self.alive[row]:
                continue
            s = self.starts[row]
            for t in self.targets[s:s + self.used[row]]:
                if t >= 0 and row < t:
                    a, b = ids[row], ids[t]
                    yield (a, b) if a <= b else (b, a)

    # ------------------------------------------------------------------
    # node edits
    # ------------------------------------------------------------------
    def add_node(self, node: int) -> int:
        """Append a fresh isolated row for ``node``; returns the row."""
        if node in self._index_of:
            raise GraphError(f"node {node} already present")
        row = len(self.ids)
        self.ids.append(node)
        self.alive.append(1)
        self.starts.append(len(self.targets))
        self.caps.append(_MIN_CAP)
        self.used.append(0)
        self.live.append(0)
        self.targets.extend([TOMBSTONE] * _MIN_CAP)
        self._index_of[node] = row
        return row

    def remove_node(self, node: int) -> list[int]:
        """Remove ``node`` and its incident edges.

        Tombstones every incident slot (both directions: the node's own
        region with one slice assignment, its slot in each neighbour's
        region with one search of that region), marks the row dead and
        returns the former live neighbour rows (the dirty set for
        maintenance engines). The dead row is reclaimed by the next
        :meth:`compact`.
        """
        row = self.row_of(node)
        targets, starts, used = self.targets, self.starts, self.used
        s = starts[row]
        n_used = used[row]
        nbrs = [t for t in targets[s:s + n_used] if t >= 0]
        for t in nbrs:
            lo = starts[t]
            targets[targets.index(row, lo, lo + used[t])] = TOMBSTONE
            self.live[t] -= 1
        targets[s:s + n_used] = array("q", [TOMBSTONE]) * n_used
        self._tombstones += 2 * len(nbrs)
        self._live_slots -= 2 * len(nbrs)
        self.live[row] = 0
        self.alive[row] = 0
        # the whole dead region becomes abandoned garbage; its slots
        # (all tombstones by now) leave the active-region tombstone count
        self._tombstones -= n_used
        self._abandoned += self.caps[row]
        used[row] = 0
        del self._index_of[node]
        return nbrs

    # ------------------------------------------------------------------
    # edge edits
    # ------------------------------------------------------------------
    def insert_edge(self, u: int, v: int) -> None:
        """Insert edge ``{u, v}``; creates missing endpoints.

        Self-loops and present edges raise
        :class:`~repro.errors.EdgeError` before anything mutates. Each
        endpoint's new slot is the next free one of its region; a full
        region is relocated first, the lower row first.
        """
        if u == v:
            raise EdgeError(f"self-loop ({u}, {v}) rejected")
        if self.has_edge(u, v):
            raise EdgeError(f"edge ({u}, {v}) already present")
        for node in (u, v):
            if node not in self._index_of:
                self.add_node(node)
        ru, rv = self._index_of[u], self._index_of[v]
        self._reserve(min(ru, rv), 1)
        self._reserve(max(ru, rv), 1)
        targets, starts, used = self.targets, self.starts, self.used
        targets[starts[ru] + used[ru]] = rv
        used[ru] += 1
        targets[starts[rv] + used[rv]] = ru
        used[rv] += 1
        self.live[ru] += 1
        self.live[rv] += 1
        self._live_slots += 2

    def delete_edge(self, u: int, v: int) -> None:
        """Tombstone edge ``{u, v}`` (endpoints stay).

        A missing edge raises :class:`~repro.errors.EdgeError`.
        """
        if not self.has_edge(u, v):
            raise EdgeError(f"edge ({u}, {v}) not present")
        ru, rv = self._index_of[u], self._index_of[v]
        targets, starts, used = self.targets, self.starts, self.used
        for a, b in ((ru, rv), (rv, ru)):
            lo = starts[a]
            targets[targets.index(b, lo, lo + used[a])] = TOMBSTONE
            self.live[a] -= 1
        self._tombstones += 2
        self._live_slots -= 2

    def _reserve(self, row: int, extra: int) -> None:
        """Ensure ``row`` has ``extra`` free slots, relocating if full.

        Relocation copies only the live slots to a doubled region at the
        buffer end; the old region (including its tombstones) becomes
        abandoned garbage until compaction.
        """
        if self.used[row] + extra <= self.caps[row]:
            return
        s = self.starts[row]
        live = [t for t in self.targets[s:s + self.used[row]] if t >= 0]
        new_cap = max(_MIN_CAP, 2 * (len(live) + extra))
        self._abandoned += self.caps[row]
        self._tombstones -= self.used[row] - len(live)
        self.starts[row] = len(self.targets)
        self.caps[row] = new_cap
        self.used[row] = len(live)
        self.targets.extend(live)
        self.targets.extend([TOMBSTONE] * (new_cap - len(live)))

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self) -> array:
        """Rebuild in canonical layout; returns old-row -> new-row map.

        Alive rows are renumbered in ascending original-id order (the
        immutable-CSR compaction), every slice is rewritten sorted
        ascending with no tombstones and fresh slack, and dead rows are
        reclaimed (mapped to ``-1``). Engines permute their row-indexed
        state tables with the returned map.
        """
        old_rows = sorted(
            (self.ids[r], r) for r in range(len(self.ids)) if self.alive[r]
        )
        mapping = array("q", [-1]) * len(self.ids)
        for new, (_, old) in enumerate(old_rows):
            mapping[old] = new
        n = len(old_rows)
        starts = array("q", [0]) * n
        caps = array("q", [0]) * n
        used = array("q", [0]) * n
        live = array("q", [0]) * n
        ids = array("q", [0]) * n
        cursor = 0
        # every row's slice waits here for the new buffer: as arrays
        # they hold 8 bytes an entry instead of a list of int objects
        slices: list[array] = []
        for new, (node_id, old) in enumerate(old_rows):
            s = self.starts[old]
            nbrs = array("q", sorted(
                mapping[t]
                for t in self.targets[s:s + self.used[old]]
                if t >= 0
            ))
            cap = _slack_for(len(nbrs))
            ids[new] = node_id
            starts[new] = cursor
            caps[new] = cap
            used[new] = len(nbrs)
            live[new] = len(nbrs)
            cursor += cap
            slices.append(nbrs)
        targets = array("q", [TOMBSTONE]) * cursor
        for new in range(n):
            s = starts[new]
            targets[s:s + used[new]] = slices[new]
        self.ids = ids
        self.alive = bytearray(b"\x01") * n if n else bytearray()
        self.starts = starts
        self.caps = caps
        self.used = used
        self.live = live
        self.targets = targets
        self._index_of = {ids[i]: i for i in range(n)}
        self._tombstones = 0
        self._abandoned = 0
        self.compactions += 1
        return mapping

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def to_csr(self) -> CSRGraph:
        """An immutable snapshot in canonical CSR form.

        Includes isolated alive nodes; rows are renumbered by ascending
        original id exactly like :meth:`CSRGraph.from_graph`.
        """
        node_ids = sorted(self._index_of)
        ids = array("q", node_ids)
        n = len(node_ids)
        remap = array("q", [-1]) * len(self.ids)
        for compact, node in enumerate(node_ids):
            remap[self._index_of[node]] = compact
        offsets = array("q", [0]) * (n + 1)
        for compact, node in enumerate(node_ids):
            offsets[compact + 1] = (
                offsets[compact] + self.live[self._index_of[node]]
            )
        targets = array("q", [0]) * self._live_slots
        for compact, node in enumerate(node_ids):
            row = self._index_of[node]
            s = self.starts[row]
            nbrs = sorted(
                remap[t]
                for t in self.targets[s:s + self.used[row]]
                if t >= 0
            )
            lo = offsets[compact]
            targets[lo:lo + len(nbrs)] = array("q", nbrs)
        return CSRGraph(offsets, targets, ids, name=self.name)

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
        """Raise :class:`GraphError` if the slot bookkeeping is broken.

        Test hook: every region within bounds, ``live`` equals the
        non-tombstone slot count, symmetry of live edges, and the
        garbage counters exact.
        """
        tomb = 0
        live_slots = 0
        spans = []
        for row in range(len(self.ids)):
            s, cap, used = self.starts[row], self.caps[row], self.used[row]
            if not (0 <= used <= cap and s + cap <= len(self.targets)):
                raise GraphError(f"row {row}: region out of bounds")
            spans.append((s, cap))
            slot_vals = self.targets[s:s + used]
            row_live = [t for t in slot_vals if t >= 0]
            if len(row_live) != self.live[row]:
                raise GraphError(f"row {row}: live count drifted")
            if not self.alive[row] and row_live:
                raise GraphError(f"dead row {row} has live slots")
            tomb += used - len(row_live)
            live_slots += len(row_live)
            for t in row_live:
                if not self.alive[t]:
                    raise GraphError(f"row {row} targets dead row {t}")
                ts = self.starts[t]
                if row not in self.targets[ts:ts + self.used[t]]:
                    raise GraphError(f"edge ({row}, {t}) not symmetric")
        spans.sort()
        for (s1, c1), (s2, _) in zip(spans, spans[1:]):
            if s1 + c1 > s2:
                raise GraphError("overlapping slot regions")
        if tomb != self._tombstones:
            raise GraphError(
                f"tombstone count drifted: {tomb} != {self._tombstones}"
            )
        if live_slots != self._live_slots:
            raise GraphError("live slot count drifted")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DynamicCSRGraph n={self.num_nodes} m={self.num_edges} "
            f"rows={self.num_rows} garbage={self.garbage_slots}>"
        )
