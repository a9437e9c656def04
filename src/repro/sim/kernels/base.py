"""The kernel-backend contract shared by every flat engine.

A :class:`KernelBackend` owns the hot-path primitives that used to be
re-implemented privately inside each flat engine: integer-table
allocation, the round-2 estimate seeding, the mailbox-slot fold with
the sup-counter recompute skip, frontier recomputation + send emission
(Algorithm 1's periodic block), the shard-local cascade (Algorithm 4)
with its changed-flag bookkeeping, batched ``computeIndex`` (Algorithm
2), the bulk-synchronous h-index sweep, the CSR build from an edge
list (:meth:`KernelBackend.csr_from_edges`) and its per-edge companion
arrays (:meth:`KernelBackend.csr_companions`), and the two loops over
the partition's delivery table: building every host's tables
(:meth:`KernelBackend.shard_tables`) and routing a host's changed
estimates along them (:meth:`KernelBackend.route_updates`). Engines
orchestrate rounds and messages; backends execute the per-round array
work.

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
from typing import Any, Iterable, NamedTuple, Protocol, Sequence, runtime_checkable

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
    # Algorithm 2
    # ------------------------------------------------------------------
    def compute_index(
        self, estimates: Iterable[int], k: int, scratch: list | None = None
    ) -> int:
        """Scalar ``computeIndex`` (delegates to the canonical kernel)."""
        raise NotImplementedError

    def batch_compute_index(
        self,
        nodes: Sequence[int],
        caps: Sequence[int],
        offsets: Sequence[int],
        edge_values: Table,
        scratch: list | None,
    ) -> tuple[Table, Table]:
        """Algorithm 2 over many nodes at once.

        For each position ``p``: run ``computeIndex`` for node
        ``nodes[p]`` with upper bound ``caps[p]`` over the neighbour
        estimates ``edge_values[offsets[v]:offsets[v + 1]]``. Returns
        ``(values, supports)`` aligned with ``nodes``, where
        ``supports[p]`` is the post-condition suffix count
        ``#{estimates clamped to caps[p] that are >= values[p]}`` (the
        flat engines' ``sup``). Nodes with ``caps <= 0`` yield
        ``(0, 0)``, matching the scalar kernel.
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
    # CSR build (SNAP ingest, CSRGraph.from_edges, CSRGraph.mirror)
    # ------------------------------------------------------------------
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
    # dynamic-CSR edit kernels (streaming maintenance)
    # ------------------------------------------------------------------
    def csr_insert_slots(
        self, starts: Table, used: Table, targets: Table, owners, values
    ) -> None:
        """Append a batch of edge slots to a dynamic CSR.

        For each position ``i`` *in batch order*: write ``values[i]``
        into the next free slot of ``owners[i]``'s region
        (``targets[starts[o] + used[o]]``) and bump ``used[o]``. The
        caller (:class:`~repro.graph.dynamic_csr.DynamicCSRGraph`) has
        already validated the batch and reserved capacity. Batch order
        is part of the contract: backends must produce identical slot
        layouts (repeated owners fill consecutive slots in batch
        order), which the kernel tests assert buffer-for-buffer.
        """
        raise NotImplementedError

    def csr_delete_slots(
        self, starts: Table, used: Table, targets: Table, owners, values
    ) -> None:
        """Tombstone a batch of edge slots in a dynamic CSR.

        For each position ``i``: find the slot holding ``values[i]``
        in ``owners[i]``'s used region and overwrite it with the
        tombstone sentinel (``-1``). The caller guarantees every pair
        is present and no ``(owner, value)`` pair repeats, so each
        position hits exactly one live slot; ``used`` is untouched
        (tombstones keep their slot until compaction).
        """
        raise NotImplementedError

    def reconverge_from_bounds(
        self,
        starts: Table,
        used: Table,
        targets: Table,
        est: Table,
        frontier: Sequence[int],
        scratch: list | None,
    ) -> tuple[list, int]:
        """Warm-start re-convergence of the locality operator.

        ``est`` holds a pointwise *upper bound* of the true coreness
        over a dynamic CSR (tombstoned ``targets`` slots are skipped);
        iterate ``computeIndex`` to the greatest fixpoint below it —
        which is the coreness, because iterating from any upper bound
        is monotone non-increasing and cannot cross a fixpoint (the
        ``streaming.maintenance`` module docstring carries the full
        argument). Runs as synchronous (Jacobi) rounds so the round
        count is schedule-independent: each round recomputes the whole
        frontier from a snapshot of ``est``, applies every drop at
        once, then the next frontier is the live neighbours of the
        dropped rows. Rows with ``est <= 0`` are skipped (they cannot
        drop); rows with no live slots drop to 0.

        Returns ``(changed, rounds)``: the ascending list of rows
        whose estimate dropped (builtin ints) and the number of rounds
        executed — both bit-identical across backends.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared-memory transport primitives (mp engine, transport="shm")
    # ------------------------------------------------------------------
    def shm_view(self, buf, n: int) -> Table:
        """An i64 view of the first ``n`` words of a shared buffer.

        ``buf`` is a ``multiprocessing.shared_memory`` block's ``buf``
        memoryview; the result is the backend's native zero-copy window
        over it (``memoryview.cast("q")`` / ``np.ndarray(buffer=...)``)
        for :meth:`shm_write_i64` / :meth:`shm_read_i64`. The view
        borrows the mapping — callers keep the segment object alive for
        the view's lifetime and never close it underneath.
        """
        raise NotImplementedError

    def shm_write_i64(self, view: Table, start: int, values) -> None:
        """Write ``values`` (a builtin int sequence) at ``view[start:]``.

        One block write on either backend — this is the whole sender
        side of the shm hot path, replacing the queue transport's
        per-batch pickling.
        """
        raise NotImplementedError

    def shm_read_i64(self, view: Table, start: int, count: int) -> list[int]:
        """Read ``count`` words at ``view[start:]`` as builtin ``int``\\ s.

        Builtin ints by contract: the result feeds the same
        :meth:`fold_mailbox` path as an unpickled queue batch, and the
        bit-identical replay requires identical payload types.
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
