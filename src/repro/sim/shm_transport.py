"""Shared-memory mailbox rings for the multi-process engine.

The queue transport of :mod:`repro.sim.mp_engine` pickles every
host-to-host estimate batch at the sender and copies it through a
``multiprocessing.Queue`` (a pipe write by a feeder thread, a pipe read
plus an unpickle at the receiver). ``transport="shm"`` replaces that
hot path with **per-worker mailbox rings in
``multiprocessing.shared_memory`` blocks**: the sender writes
fixed-width i64 records straight into the destination worker's inbound
segment and the receiver reads them back as a slice — zero pickling,
zero copies through the kernel, zero feeder-thread wakeups.

**Wire format.** Each worker ``y`` owns one segment holding one
*region* per potential sender ``x``, sized from the partition's cut
structure: sender ``x`` can address at most ``#{ext slots s of shard y
with ext_host[s] == x}`` distinct slots per round (each owned node has
at most one slot in ``y``'s external space, under both communication
policies), so that count is a static per-round capacity ``cap``. A
region is two *parity buffers* (double buffering, below), each::

    [round_tag, record_count, reserved] [cap slot words] [cap value words]

A batch write fills the slot/value blocks, then publishes by writing
the header — ``round_tag`` is the delivery round, so a reader matches
the tag exactly and a stale buffer is simply skipped.

**Buffer flip.** Lockstep delivers round-``r`` emissions in round
``r + 1``, so a batch for delivery round ``d`` is written to the parity
``d % 2`` buffer and the buffer is not reused before delivery round
``d + 2`` — by which time the ``d``-barrier has long retired every
reader. The existing round barrier is therefore the only
synchronisation: by the time the coordinator dispatches round ``r``,
every round-``r`` ring write has completed (workers report *after*
emitting), so ring reads never block and carry no locks. Writers never
share a region (one region per ordered ``(x, y)`` pair).

**Capacity.** ``cap`` is exact, not a guess: a batch carries at most
one record per owned node of the sender with a neighbour on ``y``, and
each such node is exactly one of ``y``'s external slots owned by ``x``.
So every batch fits, under every communication policy, and a batch
that does not is a bug — :meth:`ShmMailbox.write` raises rather than
dropping or rerouting it.

**Lifecycle.** The *coordinator* creates every segment and is the
single close + unlink point (engine shutdown); workers attach by name
and only ever :meth:`ShmMailbox.detach` on a clean command-loop exit —
releasing their views *before* closing, because a mapping cannot close
under live ``memoryview`` exports (``BufferError``), and
interpreter-shutdown ``__del__`` order would otherwise trip exactly
that. Coordinator ownership is also what makes in-flight recovery
work: segments survive a worker's death, so a respawned replacement
re-attaches and finds the stuck round's mail ring intact. Workers do
*not* unregister their attachments from the ``resource_tracker``: the
fleet shares one tracker process (children inherit its fd) whose
per-name cache is a set, so re-registration on attach (bpo-39959) is
idempotent there, while an unregister would cancel the coordinator's
own registration and disable the crash-leak cleanup.

**I/O.** Each segment is viewed as ``memoryview(seg.buf).cast("q")``,
whatever kernel backend the fleet runs. A write copies the sender's
``array('q')`` batch buffers into the ring with one slice assignment
each; a read returns builtin ``int`` lists (``view[a:b].tolist()``), so
folded batches are byte-for-byte what the queue transport would have
unpickled — the replay stays bit-identical.
"""

from __future__ import annotations

from array import array
from multiprocessing import shared_memory

from repro.errors import SimulationError

__all__ = [
    "HEADER_WORDS",
    "WORD_BYTES",
    "ShmLayout",
    "ShmMailbox",
    "attach_mailbox",
    "build_shm_layout",
    "create_segments",
]

#: Words per region header: ``[round_tag, record_count, reserved]``.
HEADER_WORDS = 3
#: Every field is one i64.
WORD_BYTES = 8


class ShmLayout:
    """The static region map of a fleet's mailbox segments.

    Computed once by the coordinator from the :class:`ShardedCSR` cut
    structure and shipped to every worker with the spawn arguments
    (plain picklable data — no OS handles; see :class:`ShmMailbox` for
    the handle-carrying object, which never crosses a process
    boundary).

    Attributes
    ----------
    regions:
        Per destination worker ``y``: ``{sender x: (base0, base1,
        cap)}`` — the word offsets of the two parity buffers for the
        ``(x, y)`` ring and its per-round record capacity.
    seg_words / seg_bytes:
        Size of each worker's inbound segment, in i64 words / bytes
        (at least one word, so workers without inbound senders still
        get a mappable segment).
    """

    def __init__(
        self,
        regions: "list[dict[int, tuple[int, int, int]]]",
        seg_words: "list[int]",
    ) -> None:
        self.regions = regions
        self.seg_words = seg_words
        self.seg_bytes = [w * WORD_BYTES for w in seg_words]


def build_shm_layout(sharded) -> ShmLayout:
    """Size every ring from the partition's cut upper bounds."""
    regions: list[dict[int, tuple[int, int, int]]] = []
    seg_words: list[int] = []
    for shard in sharded.shards:
        counts: dict[int, int] = {}
        for x in shard.ext_host:
            counts[x] = counts.get(x, 0) + 1
        table: dict[int, tuple[int, int, int]] = {}
        offset = 0
        for x in sorted(counts):
            cap = counts[x]
            table[x] = (offset, 0, cap)
            offset += HEADER_WORDS + 2 * cap
        # the parity-1 buffers mirror the parity-0 block wholesale
        half = offset
        for x in table:
            base0, _, cap = table[x]
            table[x] = (base0, base0 + half, cap)
        regions.append(table)
        seg_words.append(max(1, 2 * half))
    return ShmLayout(regions, seg_words)


def create_segments(layout: ShmLayout) -> list:
    """Coordinator side: allocate one zero-filled segment per worker.

    Auto-generated names (collision-free across concurrent fleets);
    the caller owns close + unlink.
    """
    return [
        shared_memory.SharedMemory(create=True, size=nbytes)
        for nbytes in layout.seg_bytes
    ]


def attach_mailbox(layout: ShmLayout, names, host: int) -> "ShmMailbox":
    """Worker side: map every segment and build the mailbox over it.

    The whole fleet (coordinator and workers alike) shares one
    ``resource_tracker`` process — multiprocessing hands the tracker fd
    to every child — and its per-name cache is a set, so the
    re-registration each attach performs (bpo-39959) is a no-op there.
    Workers therefore neither unregister (that would cancel the
    *coordinator's* registration in the shared tracker and break the
    crash-leak protection) nor ever unlink; the coordinator's shutdown
    is the single close + unlink point.
    """
    return ShmMailbox(
        layout,
        [shared_memory.SharedMemory(name=name) for name in names],
        host,
    )


class ShmMailbox:
    """One worker's handle on the fleet's mailbox segments.

    Holds the mapped segments (kept referenced for the process
    lifetime — the views below borrow their buffers) and one i64
    ``memoryview`` per segment. Process-local by construction: never
    pickled, never part of a snapshot (replay-lint's RPL005 polices the
    pickled-state side of that contract).
    """

    def __init__(self, layout: ShmLayout, segments, host: int) -> None:
        self.host = host
        self.layout = layout
        self.segments = segments
        self.views = [
            memoryview(seg.buf).cast("q")[:layout.seg_words[y]]
            for y, seg in enumerate(segments)
        ]

    def write(self, dest: int, deliver_round: int, slots: array,
              vals: array) -> int:
        """Publish one batch (parallel ``array('q')`` buffers) into
        ``dest``'s ring.

        Record blocks first, header last — the tag write is the
        publication point, so a reader either sees the whole batch or
        (tag mismatch) none of it. Returns the ring bytes written, the
        ``shm_bytes_total`` unit. A batch over the ring's capacity
        raises :class:`~repro.errors.SimulationError` before anything
        is written (see the module docstring: it cannot happen).
        """
        base0, base1, cap = self.layout.regions[dest][self.host]
        n = len(slots)
        if n > cap:
            raise SimulationError(
                f"shm batch of {n} records from worker {self.host} to "
                f"worker {dest} exceeds its ring capacity {cap}; ring "
                "capacities are exact upper bounds, so the shard tables "
                "and the layout disagree"
            )
        view = self.views[dest]
        base = base0 if deliver_round % 2 == 0 else base1
        lo = base + HEADER_WORDS
        view[lo:lo + n] = slots
        view[lo + cap:lo + cap + n] = vals
        view[base:lo] = array("q", (deliver_round, n, 0))
        return WORD_BYTES * (HEADER_WORDS + 2 * n)

    def detach(self) -> None:
        """Release every view, then close this process's mappings.

        Order matters: the views borrow the mapped buffers, and a
        ``SharedMemory.close`` (or its interpreter-shutdown ``__del__``)
        under live exports raises ``BufferError``. Called by the worker
        command loop on the way out; never unlinks — the coordinator
        owns the names.
        """
        self.views = []
        for seg in self.segments:
            try:
                seg.close()
            except BufferError:  # pragma: no cover - defensive
                pass
        self.segments = []

    def read(self, rnd: int) -> list:
        """Collect round-``rnd`` batches from this worker's own segment.

        Scans every inbound region's parity-``rnd % 2`` buffer; a tag
        other than ``rnd`` means that sender sent nothing this round
        and the region is skipped. Region build order is ascending
        sender id, so the yield order is deterministic (the engine
        re-sorts by sender before folding regardless).
        """
        view = self.views[self.host]
        parity = rnd % 2
        out = []
        for x, (base0, base1, cap) in self.layout.regions[self.host].items():
            base = base0 if parity == 0 else base1
            if view[base] != rnd:
                continue
            n = view[base + 1]
            lo = base + HEADER_WORDS
            out.append(
                (x, view[lo:lo + n].tolist(), view[lo + cap:lo + cap + n].tolist())
            )
        return out
