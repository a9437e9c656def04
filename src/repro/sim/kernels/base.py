"""The kernel-backend contract shared by every flat engine.

A :class:`KernelBackend` owns the hot-path primitives that used to be
re-implemented privately inside each flat engine: integer-table
allocation, the round-2 estimate seeding, the mailbox-slot fold with
the sup-counter recompute skip, frontier recomputation + send emission
(Algorithm 1's periodic block), the shard-local cascade (Algorithm 4)
with its changed-flag bookkeeping, the bulk-synchronous h-index sweep,
the SNAP text parse (:meth:`KernelBackend.parse_edge_block`), the CSR
build from an edge list (:meth:`KernelBackend.csr_from_edges`) and its
per-edge companion arrays (:meth:`KernelBackend.csr_companions`), and
the two loops over the partition's delivery table: building every
host's tables (:meth:`KernelBackend.shard_tables`) and routing a host's
changed estimates along them (:meth:`KernelBackend.route_updates`). Engines
orchestrate rounds and messages; backends execute the per-round array
work. A job is a kernel only when engines or graph builders call it
and the backend changes its cost (the parse and the two CSR builds
have only builder callers: the SNAP reader and :class:`~repro.graph.
csr.CSRGraph`); other jobs live beside their caller (dynamic-CSR
row edits in :mod:`repro.graph.dynamic_csr`, the streaming
re-convergence in :mod:`repro.streaming.flat_maintenance`, the shm
ring's block copies in :mod:`repro.sim.shm_transport`, scalar
``computeIndex`` in :mod:`repro.core.compute_index`).

**The contract.** Every kernel is defined by the canonical stdlib
implementation (:class:`~repro.sim.kernels.stdlib_backend.
StdlibBackend` — the loops extracted verbatim from the PR 1-3 engines).
An alternative backend must be *bit-identical on every observable*: the
post-call contents of the ``est`` / ``core`` / ``sup`` / ``incoming`` /
``sent`` arrays and flag buffers it touches, the *set* of frontier /
dirty / changed nodes and emitted mailbox slots, and every returned
count. Only container types (``array('q')`` vs ``numpy.ndarray``) and
the *order* of returned node/slot collections may differ — engines must
not depend on that order, which is safe because every phase is
order-independent within itself (folds are min-folds, the cascade
converges to a unique fixpoint from any schedule, and frontier
recomputes touch disjoint per-node state).

**Array kinds.** Backends deal in two kinds of flat i64 buffers:

* *graph arrays* — the immutable CSR/shard structure (``offsets``,
  ``targets``, ``mirror``, edge owners, watcher tables). Engines adopt
  them once per run through :meth:`KernelBackend.graph_array`, which
  may return a zero-copy view in the backend's native container.
* *state tables* — ``est`` / ``core`` / ``sup`` / ``incoming`` /
  ``sent`` and friends, allocated by :meth:`KernelBackend.full` in the
  backend's native container. Engines only ever index, slice-assign,
  and hand them back to kernels, so either container works above.

Scratch conventions: ``scratch`` is the caller-owned ``computeIndex``
bucket list (ignored by vectorised backends); ``in_frontier`` /
``queued`` are caller-owned dedupe flag buffers that must be all-zero
between rounds — backends that do not need them accept and ignore them
(:meth:`KernelBackend.worklist_flags` returns ``None`` for those).
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Any, NamedTuple, Protocol, Sequence, runtime_checkable

__all__ = ["KernelBackend", "ShardTables", "Table", "export_send_counts"]

#: A flat i64 buffer in a backend's native container — ``array('q')``
#: for stdlib, ``numpy.ndarray`` for numpy. Deliberately ``Any``: the
#: two containers share only the structural index/slice/len surface the
#: engines use, and pinning either nominal type here would force the
#: other backend to lie.
Table = Any

#: A worklist/slot collection returned by one backend and fed back into
#: the same backend next phase (list, array, or ndarray — engines must
#: not depend on its order, per the module docstring).
Worklist = Any


class ShardTables(NamedTuple):
    """One host's partition tables, as :meth:`KernelBackend.shard_tables`
    builds them (field meanings in that method's post-conditions).

    Every table is a fresh ``array('q')`` on every backend, so a
    :class:`~repro.graph.sharded.HostShard` pickles, checkpoints and
    feeds the shm layout the same way whichever backend built it.
    """

    owned_global: array
    offsets: array
    targets: array
    ext_global: array
    ext_host: array
    watch_offsets: array
    watch_targets: array
    deliver_offsets: array
    deliver_hosts: array
    deliver_slots: array
    cut_to: dict[int, int]


def export_send_counts(stats, sent: Table, ids=None) -> None:
    """Fold flat per-process send counters into a stats object.

    The one shared stats-export helper for all flat engines (previously
    copy-pasted as ``_export_messages`` in both engine modules):
    ``sent[i]`` messages are attributed to process ``ids[i]`` (or to
    ``i`` itself when ``ids`` is ``None`` — host pids are already
    ``0..H-1``). Zero counters stay out of ``sent_per_process``,
    matching the object engines, and values are builtin ``int`` so
    numpy-backed runs export the same payload types.
    """
    # one tolist() (array('q') and ndarray both have it) turns the
    # counters into builtin ints; the passes below then run in C
    counts = sent if isinstance(sent, list) else sent.tolist()
    keys = range(len(counts)) if ids is None else ids
    stats.sent_per_process.update(compress(zip(keys, counts), counts))
    stats.total_messages = sum(counts)


@runtime_checkable
class KernelBackend(Protocol):
    """The flat-kernel backend protocol; see the module docstring.

    A real :class:`typing.Protocol`: mypy checks the concrete backends
    *structurally* against this surface (method names, arities, keyword
    names), and replay-lint's RPL003 enforces the same parity
    syntactically on environments without mypy. Concrete backends —
    :class:`~repro.sim.kernels.stdlib_backend.StdlibBackend`
    (canonical) and :class:`~repro.sim.kernels.numpy_backend.
    NumpyBackend` (vectorised, optional) — subclass it explicitly,
    inheriting the raising default bodies so a missing kernel fails
    loudly rather than silently returning ``None``. The protocol class
    itself cannot be instantiated (``TypeError``), and
    ``runtime_checkable`` keeps the registry's ``isinstance`` pass-
    through working for any structurally-conforming object. The
    engine×backend support matrix lives in :mod:`repro.sim.kernels`.
    """

    #: Registry name ("stdlib" / "numpy").
    name: str = "abstract"

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------
    def full(self, n: int, fill: int = 0) -> Table:
        """A length-``n`` i64 state table filled with ``fill``."""
        raise NotImplementedError

    def graph_array(self, arr: Table) -> Table:
        """Adopt an immutable CSR/shard ``array('q')`` buffer.

        May return a zero-copy view; the engine promises not to mutate
        the result.
        """
        raise NotImplementedError

    def degrees(self, offsets: Table, n: int) -> Table:
        """Per-node degree table ``offsets[i + 1] - offsets[i]``."""
        raise NotImplementedError

    def worklist_flags(self, n: int) -> bytearray | None:
        """Dedupe flag buffer for the shard cascade worklist.

        ``None`` when the backend needs no such scratch (vectorised
        cascades dedupe with array ops).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # one-to-one lockstep phases (Algorithm 1 over a CSRGraph)
    # ------------------------------------------------------------------
    def seed_estimates(
        self,
        offsets: Table,
        targets: Table,
        owner: Table,
        degree: Table,
        est: Table,
        sup: Table,
        in_frontier: bytearray | None,
    ) -> Worklist:
        """Round-2 delivery: every slot carries its sender's degree.

        Fills ``est[e] = degree[targets[e]]``, seeds the support
        counters ``sup[v] = #{e in v's slice: est[e] >= degree[v]}``
        and returns the initial frontier — the nodes with
        ``sup < degree`` (flagged in ``in_frontier`` by backends that
        use it).
        """
        raise NotImplementedError

    def fold_slots(
        self,
        slots: Worklist,
        incoming: Table,
        est: Table,
        owner: Table,
        core: Table,
        sup: Table,
        in_frontier: bytearray | None,
    ) -> Worklist:
        """Fold one round of mailbox slots into the estimate table.

        For each delivered slot, record ``incoming[slot]`` into
        ``est[slot]`` when smaller; a delivery that drops a slot's
        estimate across its owner's ``core`` level decrements the
        owner's ``sup``, and owners starved below ``core`` form the
        returned frontier (each node at most once). ``slots`` is
        whatever container the same backend's :meth:`process_frontier`
        returned last round.
        Pre: the slots are distinct, each ``incoming[slot]`` strictly
        below ``est[slot]`` (a node sends only when it drops below all
        it sent before); the numpy kernel writes them without comparing.
        """
        raise NotImplementedError

    def process_frontier(
        self,
        frontier,
        offsets,
        targets,
        mirror,
        est,
        core,
        sup,
        incoming,
        sent,
        optimize: bool,
        scratch,
        in_frontier,
    ):
        """Recompute every frontier node and emit its sends.

        Runs ``computeIndex`` per frontier node (refreshing ``sup``
        from the suffix count), lowers ``core`` on drops, and for each
        dropped node writes the new estimate into the mirror slot of
        every retained edge (the Section 3.1.2 filter suppresses edges
        with ``est <= new core`` when ``optimize``), bumping ``sent``.
        Returns ``(sends, slots)`` — the emitted message count and the
        written slots, to be folded next round by :meth:`fold_slots`.
        Pre: the frontier nodes are distinct, each with an exact
        ``sup`` below ``core``, so each one drops; the numpy kernel
        lowers and emits without testing for a drop.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # one-to-many shard phases (Algorithms 3-5 over a HostShard)
    # ------------------------------------------------------------------
    def seed_shard(
        self,
        offsets: Table,
        targets: Table,
        n_owned: int,
        n_ext: int,
        infinity: int,
        est: Table,
        sup: Table,
        queued: bytearray | None,
    ) -> Worklist:
        """Algorithm 3 initialisation for one shard.

        Owned estimates start at their degree, external ones at
        ``infinity``; seeds ``sup`` like :meth:`seed_estimates` and
        returns the initial dirty worklist (owned nodes with
        ``sup < est``) for :meth:`cascade`.
        """
        raise NotImplementedError

    def cascade(
        self,
        offsets,
        targets,
        n_owned,
        est,
        sup,
        dirty,
        queued,
        changed_flag,
        changed_list,
        scratch,
    ) -> None:
        """Algorithm 4 — run the internal cascade to its fixpoint.

        ``dirty`` is the container the same backend's
        :meth:`seed_shard` / :meth:`fold_mailbox` returned. Every
        dropped owned node is flagged once in ``changed_flag`` and
        appended (as a builtin ``int``) to ``changed_list``; ``sup`` is
        maintained exactly (recomputed nodes re-read it from the suffix
        count, neighbours of dropped nodes are decremented per level
        crossing). The fixpoint, the changed set and the final ``sup``
        are schedule-independent, so worklist and batched
        implementations agree bit-for-bit.
        Pre: the dirty nodes are distinct, each with an exact ``sup``
        below its estimate, so each one drops; the numpy kernel lowers
        them without testing for a drop.
        """
        raise NotImplementedError

    def fold_mailbox(
        self, slots, vals, n_owned, est, sup, watch_offsets, watch_targets, queued
    ):
        """Fold received ``(ext-slot, value)`` pairs into a shard.

        ``slots`` / ``vals`` are the engine's parallel ``array('q')``
        mailbox buffers (lists of ints are accepted too); nothing
        returned may alias them, as the engine clears them next.
        Min-folds each external slot, decrements the support of
        watchers whose level the drop crosses, and returns the dirty
        worklist (watchers starved below their estimate) for
        :meth:`cascade`.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # SNAP ingest and CSR build (read_edge_list, CSRGraph.from_edges,
    # CSRGraph.mirror)
    # ------------------------------------------------------------------
    def parse_edge_block(self, text: str) -> tuple[array, array] | None:
        """The endpoint columns of one block of SNAP edge lines.

        Pre: ``text`` is whole lines ending in ``"\\n"``, with the
        comment lines already stripped. Post: ``None``, or ``(us, vs)``
        — two fresh ``array('q')`` columns holding one pair per line,
        ``(us[k], vs[k])`` being the two fields of line ``k``.

        The stdlib kernel is canonical: one ``split()`` of the block,
        each newline standing in as a token, accepts the block only
        when every line holds exactly two fields that ``int()`` reads
        into the signed 64-bit range, and returns ``None`` otherwise
        (blank lines, extra columns, bad ids). Another backend returns
        the stdlib columns or ``None``, never other pairs, and may
        return ``None`` where the stdlib kernel succeeds; the reader
        then asks the stdlib kernel, and after it its line loop, which
        names the bad line (``tests/test_kernels.py`` asserts this on
        generated blocks).
        """
        raise NotImplementedError

    def csr_from_edges(self, us: array, vs: array) -> tuple[array, array, array]:
        """Build the CSR of the simple undirected graph on ``(us[k], vs[k])``.

        Pre: ``us`` / ``vs`` are equal-length ``array('q')`` endpoint
        buffers holding any signed 64-bit ids. Duplicate pairs, reverse
        pairs and self-loops are all allowed, and the inputs are not
        modified. Post: returns ``(offsets, targets, ids)``, fresh
        ``array('q')`` buffers with no reference into the inputs:

        * ``ids`` — every id in ``us`` or ``vs``, once each, ascending
          (a self-loop's endpoint included); id ``ids[i]`` is compact
          node ``i``;
        * ``offsets`` — ``len(ids) + 1`` entries; node ``i``'s
          neighbours are ``targets[offsets[i]:offsets[i + 1]]``;
        * ``targets`` — the compact neighbours of each node, strictly
          ascending within each slice: a pair in either direction
          gives one entry on each side, repeats collapse, and
          self-loops give none.

        This is exactly :meth:`~repro.graph.csr.CSRGraph.from_graph`
        of the graph the pairs describe, and the buffers are
        bit-identical across backends (``tests/test_kernels.py``
        asserts it on generated inputs).
        """
        raise NotImplementedError

    def csr_companions(self, offsets: array, targets: array) -> tuple[array, array]:
        """The per-edge companion arrays of a CSR: ``(owners, mirror)``.

        Pre: ``offsets`` / ``targets`` are ``array('q')`` buffers of a
        symmetric CSR whose slices are strictly ascending (what
        :meth:`csr_from_edges` builds). Post: fresh ``array('q')``
        buffers of ``len(targets)`` entries each, with no reference into
        the inputs:

        * ``owners[e]`` — the node whose slice holds slot ``e``;
        * ``mirror[e]`` — the slot of the reverse edge: if ``e`` sits
          in ``u``'s slice and points at ``v``, ``mirror[e]`` sits in
          ``v``'s slice and points back at ``u``.

        The buffers are bit-identical across backends
        (``tests/test_kernels.py`` asserts it on generated inputs).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # partition tables (ShardedCSR build, one-to-many routing)
    # ------------------------------------------------------------------
    def shard_tables(
        self, offsets: Table, targets: Table, host_of: Table, num_hosts: int
    ) -> list[ShardTables]:
        """Build every host's :class:`ShardTables` at once.

        Pre: ``offsets`` / ``targets`` are a symmetric CSR over ``n``
        nodes and ``host_of[i]`` in ``[0, num_hosts)`` places node
        ``i`` (all ``array('q')``). Post: element ``x`` of the result
        holds host ``x``'s tables, with no reference into the inputs:

        * ``owned_global`` — the nodes placed on ``x``, ascending; the
          owned node at position ``u`` is *local node* ``u``;
        * ``offsets`` / ``targets`` — the local CSR over the owned
          nodes, in the parent's edge order. An owned neighbour becomes
          its local index, an external one ``n_owned + s`` where ``s``
          is its *ext slot*;
        * ``ext_global`` / ``ext_host`` — the external neighbours by
          ext slot, numbered in first-encounter order of that edge
          scan, and their hosts;
        * ``watch_offsets`` / ``watch_targets`` — CSR from ext slot
          ``s`` to the owned nodes adjacent to it, one entry per edge,
          in scan order;
        * ``deliver_offsets`` / ``deliver_hosts`` / ``deliver_slots``
          — CSR over owned nodes: for local ``u``, one ``(y, s)`` pair
          per other host ``y`` whose ext space holds ``u``, ``y``
          ascending, ``s`` being ``u``'s ext slot on ``y``;
        * ``cut_to`` — ``{y: directed edges from x's owned nodes into
          host y}``, keys in first-encounter order of ``ext_host``.

        Every table is bit-identical across backends
        (``tests/test_sharded_csr.py`` asserts it table by table).
        """
        raise NotImplementedError

    def route_updates(
        self,
        nodes,
        est,
        deliver_offsets,
        deliver_hosts,
        deliver_slots,
        neighbor_hosts,
        broadcast,
        out_slots,
        out_vals,
        host_counts,
    ) -> tuple[Sequence[int], int]:
        """Route one activation's updates along a delivery table.

        ``nodes`` (builtin ints, any order) are owned local nodes whose
        estimates ``est[u]`` changed; ``deliver_*`` are the shard's
        delivery CSR adopted through :meth:`graph_array`. For each
        ``u`` in ``nodes`` order, for each ``(y, s)`` in ``u``'s
        delivery segment order, ``s`` is appended to the ``array('q')``
        buffer ``out_slots[y]`` and ``est[u]`` to ``out_vals[y]`` — so
        the caller's per-destination buffers come out in the same order
        on every backend. Returns ``(dests, sent)``:

        * no nodes or no ``neighbor_hosts``: ``((), 0)`` — nothing has
          to be sent to another host (Figure 5), nothing is appended;
        * ``broadcast`` (Algorithm 3): ``(neighbor_hosts, len(nodes))``
          — one transmission reaches every neighbour host, and each
          estimate costs one overhead unit;
        * otherwise point-to-point (Algorithm 5): the hosts that
          received at least one pair, in first-touch order, and the
          number of pairs appended (one unit per estimate and
          destination).

        ``host_counts`` is caller-owned per-host scratch, all-zero
        between calls (vectorised backends read only its length).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # bulk-synchronous sweeps (h-index / Pregel baselines)
    # ------------------------------------------------------------------
    def hindex_sweep(
        self, offsets: Table, targets: Table, values: Table, scratch: list | None
    ) -> tuple[Any, Table]:
        """One synchronous (Jacobi) h-index sweep over all nodes.

        Every node's next value is ``computeIndex`` over its
        neighbours' *previous* values (isolated nodes stay 0). Returns
        ``(changed, next_values)``; ``values`` itself is not mutated.
        """
        raise NotImplementedError

    def count_intra(
        self, slots: Worklist, owner: Table, targets: Table, worker_of: Table
    ) -> int:
        """How many of the given mailbox slots stay inside one worker.

        A slot's message travels ``targets[slot] -> owner[slot]``;
        counts those with equal ``worker_of`` at both ends. ``slots`` is
        a container produced by the same backend (or ``None`` for "every
        slot", the superstep-0 broadcast). Used by the flat Pregel port
        for its inter-/intra-worker traffic split.
        """
        raise NotImplementedError

    def count_distinct_owners(self, slots: Worklist, owner: Table, n: int) -> int:
        """How many distinct receivers the given mailbox slots address.

        ``owner[slot]`` is the node a slot delivers to; counts the
        distinct owners over ``slots`` (a container produced by the same
        backend, or ``None`` for "every slot" — the superstep-0
        broadcast). Used by the flat Pregel port to reproduce the BSP
        master's per-superstep active-vertex count: a Pregel vertex is
        active in superstep ``S`` exactly when a message sent in ``S-1``
        addresses it (every vertex votes to halt each superstep).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name}>"
