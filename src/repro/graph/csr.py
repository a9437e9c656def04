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

Edge lists become CSR buffers through one code path, the kernel layer's
``csr_from_edges`` (:mod:`repro.sim.kernels`): :meth:`from_edges` and
the SNAP reader :func:`repro.graph.io.read_edge_list` both go through
:meth:`CSRGraph._from_endpoints`. The per-edge companion arrays the flat
engines read, :meth:`edge_owners` and :meth:`mirror`, come from one
``csr_companions`` kernel call on first use of either, never at build
time (most readers of a file never ask for them). Both kernels, and
the SNAP reader's ``parse_edge_block``, run on numpy when numpy is
importable and the input has at least :data:`NUMPY_MIN_PAIRS` pairs,
slots or lines, and on the stdlib otherwise (:func:`_build_backend`).
Both backends build identical ``array('q')`` buffers, so the choice is
invisible to every reader.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from operator import sub
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import GraphError, NodeNotFoundError
from repro.graph.graph import Graph

if TYPE_CHECKING:
    from repro.sim.kernels import KernelBackend

__all__ = ["CSRGraph"]

#: Edge lists shorter than this, CSRs with fewer slots and SNAP files
#: until this many lines are read build or parse on the stdlib kernels
#: even where numpy is importable. Importing numpy costs a process
#: about 14 MB resident and 0.1-0.2 s, more than the numpy build saves
#: below this size (1-2 us per pair), and a small graph is often the
#: only thing in the process that would import it.
NUMPY_MIN_PAIRS = 1 << 16


def _build_backend(size: int) -> "KernelBackend":
    """The kernel backend that builds ``size`` pairs or slots, or
    parses a block that ends ``size`` lines into a file."""
    # deferred: importing the kernel layer at module scope would close a
    # cycle through repro.sim (whose engines import this)
    from repro.sim.kernels import numpy_available, resolve_backend

    large = size >= NUMPY_MIN_PAIRS
    return resolve_backend("numpy" if large and numpy_available() else "stdlib")


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
        "_base",
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
        # a renamed view of another CSR's buffers (from_graph) takes the
        # lazy caches from that CSR, so they are built once for both
        self._base: CSRGraph | None = None

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
        self._base = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph, name: str | None = None) -> "CSRGraph":
        """Compact a :class:`Graph`; nodes are ordered by ascending id.

        A graph read from a file hands back the CSR it holds (see
        :mod:`repro.graph.graph`) until its first mutation, or a view of
        it under the graph's other name that shares its lazy caches;
        nothing is copied, so callers must not write its buffers.
        """
        label = graph.name if name is None else name
        held = graph._csr
        if held is not None:
            if held.name == label:
                return held
            view = cls(held.offsets, held.targets, held.ids, name=label)
            view._base = held
            return view
        node_ids = sorted(graph.nodes())
        try:
            ids = array("q", node_ids)
        except OverflowError:
            bad = next(u for u in node_ids if not -(1 << 63) <= u < 1 << 63)
            raise GraphError(
                f"node id {bad} outside the signed 64-bit range"
            ) from None
        n = len(node_ids)
        contiguous = n == 0 or (node_ids[0] == 0 and node_ids[-1] == n - 1)
        index_of = (
            None if contiguous else {u: i for i, u in enumerate(node_ids)}
        )
        rows = list(map(graph.neighbors, node_ids))
        offsets = array("q", accumulate(map(len, rows), initial=0))
        # one sorted row at a time: a list of n live map objects would
        # set off cyclic-GC passes over the graph's adjacency sets
        compact: Iterable[Iterable[int]] = (
            map(sorted, rows) if index_of is None
            else (sorted(map(index_of.__getitem__, nbrs)) for nbrs in rows)
        )
        targets = array("q", chain.from_iterable(compact))
        csr = cls(offsets, targets, ids, name=label)
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
        us, vs = array("q"), array("q")
        for u, v in edges:
            if not isinstance(u, int) or not isinstance(v, int):
                raise GraphError(f"node ids must be integers, got ({u!r}, {v!r})")
            us.append(u)
            vs.append(v)
        if num_nodes is not None:
            # a self-loop testifies that its node exists
            us.extend(range(num_nodes))
            vs.extend(range(num_nodes))
        return cls._from_endpoints(us, vs, name=name)

    @classmethod
    def _from_endpoints(
        cls, us: array, vs: array, name: str = "", relabel: bool = False
    ) -> "CSRGraph":
        """The graph on the pairs ``(us[k], vs[k])`` of two ``array('q')``
        endpoint buffers, with :meth:`from_edges` semantics.

        ``relabel`` numbers the nodes ``0..n-1`` in ascending order of
        their ids instead of keeping the ids.
        """
        offsets, targets, ids = _build_backend(len(us)).csr_from_edges(us, vs)
        if relabel:
            ids = array("q", range(len(ids)))
        return cls(offsets, targets, ids, name=name)

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
        if self._base is not None:
            return self._base.index(node)
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
        return max(map(sub, offsets[1:], offsets[:-1]), default=0)

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
            self._edge_owners, self._mirror = self._companions()
        return self._edge_owners

    def mirror(self) -> array:
        """``mirror[e]`` — index of the reverse directed edge of ``e``.

        If ``e`` sits in ``u``'s slice and points at ``v``, ``mirror[e]``
        sits in ``v``'s slice and points back at ``u``.
        """
        if self._mirror is None:
            self._edge_owners, self._mirror = self._companions()
        return self._mirror

    def _companions(self) -> tuple[array, array]:
        """``(edge_owners, mirror)`` from one ``csr_companions`` kernel
        call, or from the CSR this one is a renamed view of."""
        base = self._base
        if base is not None:
            return base.edge_owners(), base.mirror()
        return _build_backend(len(self.targets)).csr_companions(
            self.offsets, self.targets
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<CSRGraph{label} nodes={self.num_nodes} edges={self.num_edges}>"
        )
