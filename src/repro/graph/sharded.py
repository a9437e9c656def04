"""Sharded CSR storage — the partition layer for the one-to-many fast path.

:class:`~repro.graph.csr.CSRGraph` answers "what does the whole graph
look like"; the one-to-many protocol (Section 3.2) instead needs "what
does host ``x``'s *slice* of the graph look like": the nodes ``V(x)`` it
owns, their adjacency, and — crucially — the boundary structure through
which estimates cross hosts. :class:`ShardedCSR` materialises exactly
that, once, from a ``CSRGraph`` plus an
:class:`~repro.core.assignment.Assignment`:

* every host gets a :class:`HostShard` — a sub-CSR in a *local index
  space*: owned nodes are ``0..n_owned-1`` (ascending original id, the
  same order as ``Assignment.owned``), and the external nodes
  ``neighborV(x)`` follow as ``n_owned..n_owned+n_ext-1`` (in
  deterministic first-encounter order). A shard's ``targets`` never
  mention another shard's index space, so per-shard protocol state is a
  single flat array of length ``n_owned + n_ext``;
* the boundary tables the host protocol reads every round are
  precomputed flat: ``watch_offsets``/``watch_targets`` (which owned
  nodes care about an external estimate — the object engine's
  ``external_watchers``) and the *delivery table*
  ``deliver_offsets``/``deliver_hosts``/``deliver_slots``, a CSR over
  owned nodes listing every ``(neighbour host, destination mailbox
  slot)`` pair a node's estimate must reach — routing iterates exactly
  the relevant pairs, no per-host membership test. Per neighbour host,
  ``dest_slots`` (border membership *and* the destination slot in one
  dict — Algorithm 5's ``border``) and ``remote_slots`` (the owned
  node's external neighbours on that host, as local ext slots — the
  ``p2p_filter`` extension's ``remote_neighbors``) are built lazily;
  only the filter needs them;
* the host-to-host edge cuts are counted during the build:
  ``HostShard.cut_to[y]`` is the number of directed edges leaving the
  shard for host ``y``, and :attr:`ShardedCSR.cut_edges` is the global
  undirected cut — identical to ``Assignment.cut_edges(graph)`` without
  the per-edge Python loop over the object graph.

The tables are built by the kernel layer's ``shard_tables``
(:mod:`repro.sim.kernels`) on the backend the CSR build's size rule
picks (:func:`repro.graph.csr._build_backend`). Both build identical
``array('q')`` tables, so the choice is invisible to every reader.

The structure is immutable by convention, like ``CSRGraph``: builders
produce it, the flat one-to-many engine
(:mod:`repro.sim.flat_many_engine`) and the multi-process workers read
it. Everything a worker process needs to run its shard — local CSR,
mailbox slot maps, cut sizes — is separated per host.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from repro.core.assignment import Assignment
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph, _build_backend
from repro.graph.graph import Graph

if TYPE_CHECKING:
    from repro.sim.kernels.base import ShardTables

__all__ = ["HostShard", "ShardedCSR"]


class HostShard:
    """One host's slice of a :class:`ShardedCSR` (see module docstring).

    Local index space: ``0..n_owned-1`` are the owned nodes (ascending
    original id), ``n_owned..n_owned+n_ext-1`` the external boundary
    nodes (deterministic first-encounter order). ``owned_global[u]`` /
    ``ext_global[s]`` map back to the parent CSR's compact indices.
    :class:`ShardedCSR` builds each shard from the host's
    :class:`~repro.sim.kernels.base.ShardTables`.
    """

    __slots__ = (
        "host",
        "n_owned",
        "n_ext",
        "owned_global",
        "ext_global",
        "_ext_index",
        "ext_host",
        "offsets",
        "targets",
        "watch_offsets",
        "watch_targets",
        "neighbor_hosts",
        "deliver_offsets",
        "deliver_hosts",
        "deliver_slots",
        "cut_to",
        "_dest_slots",
        "_remote_slots",
    )

    def __init__(self, host: int, tables: "ShardTables") -> None:
        self.host = host
        self.n_owned = len(tables.owned_global)
        self.n_ext = len(tables.ext_global)
        #: global (parent-CSR compact) index of each owned local node
        self.owned_global: array = tables.owned_global
        #: global index of each external boundary node
        self.ext_global: array = tables.ext_global
        self._ext_index: dict[int, int] | None = None
        #: owning host of each external boundary node
        self.ext_host: array = tables.ext_host
        #: local CSR over owned nodes; targets are local indices
        self.offsets: array = tables.offsets
        self.targets: array = tables.targets
        #: CSR from ext slot -> owned local nodes adjacent to it
        self.watch_offsets: array = tables.watch_offsets
        self.watch_targets: array = tables.watch_targets
        #: the delivery table, a CSR over owned local nodes: for each e
        #: in u's segment, u's estimate goes to host deliver_hosts[e]
        #: (ascending) at mailbox slot deliver_slots[e], that host's ext
        #: slot for u
        self.deliver_offsets: array = tables.deliver_offsets
        self.deliver_hosts: array = tables.deliver_hosts
        self.deliver_slots: array = tables.deliver_slots
        #: per neighbour host y: directed edge count from this shard to y
        self.cut_to: dict[int, int] = tables.cut_to
        #: hosts owning at least one neighbour of an owned node (sorted)
        self.neighbor_hosts: tuple[int, ...] = tuple(sorted(tables.cut_to))
        self._dest_slots: dict[int, dict[int, int]] | None = None
        self._remote_slots: dict[int, dict[int, tuple[int, ...]]] | None = None

    # ------------------------------------------------------------------
    # pickling — the multi-process engine ships exactly one HostShard to
    # each worker process, so the wire format is explicit: every
    # precomputed table travels, the lazy caches (_ext_index,
    # _dest_slots, _remote_slots) are dropped and rebuild on first
    # access in the receiving process (only the p2p_filter path reads
    # them, and it is cheaper to rebuild per worker than to ship them).
    # ------------------------------------------------------------------
    _PICKLED_SLOTS = (
        "host",
        "n_owned",
        "n_ext",
        "owned_global",
        "ext_global",
        "ext_host",
        "offsets",
        "targets",
        "watch_offsets",
        "watch_targets",
        "neighbor_hosts",
        "deliver_offsets",
        "deliver_hosts",
        "deliver_slots",
        "cut_to",
    )

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._PICKLED_SLOTS}

    def __setstate__(self, state: dict) -> None:
        for name in self._PICKLED_SLOTS:
            setattr(self, name, state[name])
        self._ext_index = None
        self._dest_slots = None
        self._remote_slots = None

    def degree(self, u: int) -> int:
        """Degree of owned local node ``u`` (internal + external edges)."""
        return self.offsets[u + 1] - self.offsets[u]

    def border(self, y: int) -> frozenset[int]:
        """Owned local nodes with at least one neighbour on host ``y``."""
        return frozenset(self.dest_slots.get(y, ()))

    @property
    def ext_index(self) -> dict[int, int]:
        """Global index -> local ext slot (inverse of ``ext_global``)."""
        if self._ext_index is None:
            self._ext_index = {g: s for s, g in enumerate(self.ext_global)}
        return self._ext_index

    @property
    def dest_slots(self) -> dict[int, dict[int, int]]:
        """Per neighbour host y: {owned local u -> y's ext slot for u}.

        The key set is exactly the border toward y (Algorithm 5) —
        derived lazily from the delivery table; only the ``p2p_filter``
        transmit path and introspection read this per-host view.
        """
        if self._dest_slots is None:
            table: dict[int, dict[int, int]] = {}
            offsets = self.deliver_offsets
            hosts = self.deliver_hosts
            slots = self.deliver_slots
            for u in range(self.n_owned):
                for e in range(offsets[u], offsets[u + 1]):
                    y = hosts[e]
                    per_host = table.get(y)
                    if per_host is None:
                        per_host = table[y] = {}
                    per_host[u] = slots[e]
            self._dest_slots = table
        return self._dest_slots

    @property
    def remote_slots(self) -> dict[int, dict[int, tuple[int, ...]]]:
        """Per neighbour host y: {owned local u -> u's neighbours on y,
        as *this* shard's ext slots} (the ``p2p_filter`` tables).

        Built lazily from the local CSR on first access — only the
        filter extension reads it, so the default build stays lean.
        """
        if self._remote_slots is None:
            table: dict[int, dict[int, list[int]]] = {}
            n_owned = self.n_owned
            ext_host = self.ext_host
            offsets = self.offsets
            targets = self.targets
            for u in range(n_owned):
                for e in range(offsets[u], offsets[u + 1]):
                    t = targets[e]
                    if t >= n_owned:
                        s = t - n_owned
                        table.setdefault(ext_host[s], {}).setdefault(
                            u, []
                        ).append(s)
            self._remote_slots = {
                y: {u: tuple(slots) for u, slots in per_u.items()}
                for y, per_u in table.items()
            }
        return self._remote_slots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HostShard host={self.host} owned={self.n_owned} "
            f"ext={self.n_ext} neighbor_hosts={len(self.neighbor_hosts)}>"
        )


class ShardedCSR:
    """A :class:`CSRGraph` partitioned into per-host :class:`HostShard`\\ s.

    ``assignment`` must cover exactly the graph's node set; a missing or
    extra node raises :class:`ConfigurationError` (the object engine
    fails on such assignments too, just less legibly). Hosts owning no
    nodes get an empty shard — the documented ``num_hosts > num_nodes``
    contract of :func:`repro.core.assignment.assign`.

    >>> from repro.graph.generators import path_graph
    >>> from repro.core.assignment import assign
    >>> g = path_graph(4)
    >>> sharded = ShardedCSR.from_graph(g, assign(g, 2))
    >>> sharded.shards[0].n_owned, sharded.shards[0].n_ext
    (2, 2)
    >>> sharded.cut_edges
    3
    """

    __slots__ = ("csr", "assignment", "num_hosts", "shards", "host_of_index",
                 "cut_edges")

    def __init__(self, csr: CSRGraph, assignment: Assignment) -> None:
        self.csr = csr
        self.assignment = assignment
        self.num_hosts = assignment.num_hosts
        n = csr.num_nodes
        ids = csr.ids
        host_of = assignment.host_of
        if len(host_of) != n:
            raise ConfigurationError(
                f"assignment places {len(host_of)} nodes but the graph "
                f"has {n}; the node->host map must cover exactly the "
                "graph's node set"
            )
        try:
            host_idx = array("q", [host_of[g] for g in ids])
        except KeyError as exc:
            raise ConfigurationError(
                f"assignment does not place node {exc.args[0]}"
            ) from None
        self.host_of_index = host_idx

        kb = _build_backend(len(csr.targets))
        self.shards = [
            HostShard(x, tables)
            for x, tables in enumerate(
                kb.shard_tables(
                    csr.offsets, csr.targets, host_idx, self.num_hosts
                )
            )
        ]
        # every cut edge contributes one directed edge to each endpoint's
        # shard, so the undirected cut is half the directed total
        self.cut_edges = (
            sum(sum(shard.cut_to.values()) for shard in self.shards) // 2
        )

    # ------------------------------------------------------------------
    # pickling — explicit state so the whole partition (or any single
    # shard, see :meth:`HostShard.__getstate__`) round-trips through
    # ``pickle`` without re-running the O(n + m) build. The coordinator
    # of the multi-process engine relies on this contract.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for name in self.__slots__:
            setattr(self, name, state[name])

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls, graph: Graph, assignment: Assignment
    ) -> "ShardedCSR":
        """Convenience builder: compact ``graph`` to CSR, then shard it."""
        return cls(CSRGraph.from_graph(graph), assignment)

    # ------------------------------------------------------------------
    def cut_matrix(self) -> dict[tuple[int, int], int]:
        """Undirected cut edges per unordered host pair ``(x, y)``, x < y."""
        matrix: dict[tuple[int, int], int] = {}
        for shard in self.shards:
            x = shard.host
            for y, count in shard.cut_to.items():
                if x < y:
                    matrix[(x, y)] = count
        return matrix

    def load_imbalance(self) -> float:
        """Max/mean owned-node ratio across shards (1.0 == balanced).

        Shard sizes equal the assignment's by construction, so this
        simply delegates.
        """
        return self.assignment.load_imbalance()

    def __len__(self) -> int:
        return self.num_hosts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedCSR hosts={self.num_hosts} "
            f"nodes={self.csr.num_nodes} cut={self.cut_edges}>"
        )
