"""One host's step of Algorithms 3-5, shared by every sharded driver.

The one-to-many host program — seed the estimates (Algorithm 3), fold
received ``(ext-slot, value)`` pairs, run the ``improveEstimate``
cascade (Algorithm 4), and route the changes by broadcast (Algorithm 3)
or point-to-point (Algorithm 5) — is written once, here, over one
:class:`~repro.graph.sharded.HostShard`, with its array work on a
:class:`~repro.sim.kernels.base.KernelBackend`: the backend's
``route_updates`` kernel is the one routing of both policies, over the
shard's delivery table. The drivers only decide when a host runs and
how its batches travel:
:class:`~repro.sim.flat_many_engine.FlatOneToManyEngine` hands
:meth:`HostStep.emit` its live ``array('q')`` mailbox buffers, and
:class:`~repro.sim.mp_engine.MultiProcessOneToManyEngine` ships the
batches it fills over a queue or a shared-memory ring. So the mp replay
of the flat lockstep engine cannot drift on a policy branch or on the
Figure-5 ``estimates_sent`` accounting.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from repro.graph.sharded import HostShard
from repro.sim.kernels.base import KernelBackend
from repro.telemetry.spans import NULL_TRACER

__all__ = ["HostStep"]


class HostStep:
    """One shard's protocol state and its three moves.

    :meth:`init` and :meth:`fold` return the updates to transmit — the
    owned local nodes whose estimates ``est[u]`` must go out, as a list
    of builtin ints — and :meth:`emit` routes them; a driver calls
    :meth:`emit` right after the move that returned them, before the
    estimates can change again. ``est`` covers owned
    then external slots; ``sup[u]`` counts neighbours at or above
    ``est[u]`` (the cascade recomputes a node only when a drop pushes
    it below); ``estimates_sent`` is the Figure-5 overhead numerator.
    Kernel phases run in ``tracer`` spans carrying ``span_args``.
    """

    __slots__ = (
        "kb",
        "shard",
        "broadcast",
        "infinity",
        "offsets",
        "targets",
        "watch_offsets",
        "watch_targets",
        "deliver_offsets",
        "deliver_hosts",
        "deliver_slots",
        "est",
        "sup",
        "queued",
        "changed_flag",
        "changed_list",
        "scratch",
        "estimates_sent",
        "host_counts",
        "tracer",
        "span_args",
    )

    def __init__(
        self,
        kb: KernelBackend,
        shard: HostShard,
        num_hosts: int,
        communication: str,
        infinity: int,
        tracer=NULL_TRACER,
        span_args: "dict | None" = None,
    ) -> None:
        n_owned = shard.n_owned
        self.kb = kb
        self.shard = shard
        self.broadcast = communication == "broadcast"
        self.infinity = infinity
        self.offsets = kb.graph_array(shard.offsets)
        self.targets = kb.graph_array(shard.targets)
        self.watch_offsets = kb.graph_array(shard.watch_offsets)
        self.watch_targets = kb.graph_array(shard.watch_targets)
        self.deliver_offsets = kb.graph_array(shard.deliver_offsets)
        self.deliver_hosts = kb.graph_array(shard.deliver_hosts)
        self.deliver_slots = kb.graph_array(shard.deliver_slots)
        self.est = kb.full(n_owned + shard.n_ext)
        self.sup = kb.full(n_owned)
        self.queued = kb.worklist_flags(n_owned)
        self.changed_flag = bytearray(n_owned)
        self.changed_list: list[int] = []
        self.scratch: list[int] = []
        self.estimates_sent = 0
        # route_updates scratch: per-destination pair counts, all-zero
        # between emits
        self.host_counts = array("q", [0]) * num_hosts
        self.tracer = tracer
        self.span_args = span_args or {}

    # ------------------------------------------------------------------
    def _cascade(self, dirty) -> None:
        if len(dirty):
            with self.tracer.span("kernel.cascade", **self.span_args):
                self.kb.cascade(
                    self.offsets, self.targets, self.shard.n_owned, self.est,
                    self.sup, dirty, self.queued, self.changed_flag,
                    self.changed_list, self.scratch,
                )

    def _drain_changes(self) -> list[int]:
        """The cascade's changed nodes; resets the flags."""
        changed = self.changed_list
        flags = self.changed_flag
        for u in changed:
            flags[u] = 0
        self.changed_list = []
        return changed

    def init(self) -> list[int]:
        """Algorithm 3 initialisation: degrees in, cascade.

        Returns every owned node — the initial message carries all
        estimates, changed or not.
        """
        shard = self.shard
        n_owned = shard.n_owned
        with self.tracer.span("kernel.seed_shard", **self.span_args):
            dirty = self.kb.seed_shard(
                self.offsets, self.targets, n_owned, shard.n_ext,
                self.infinity, self.est, self.sup, self.queued,
            )
        self._cascade(dirty)
        self._drain_changes()
        return list(range(n_owned))

    def fold(self, slots, vals, **span_args) -> list[int]:
        """Fold one activation's mail, cascade; returns the changes.

        ``slots`` / ``vals`` are parallel ``array('q')`` mailbox buffers
        (or lists of ints) of received ``(ext-slot, value)`` pairs in
        sender-pid order. Extra keyword arguments are attached to the
        ``kernel.fold_mailbox`` span.
        """
        with self.tracer.span(
            "kernel.fold_mailbox", **self.span_args, **span_args
        ):
            dirty = self.kb.fold_mailbox(
                slots, vals, self.shard.n_owned, self.est, self.sup,
                self.watch_offsets, self.watch_targets, self.queued,
            )
        self._cascade(dirty)
        return self._drain_changes()

    def emit(
        self,
        updates: list[int],
        out_slots: Sequence[array],
        out_vals: Sequence[array],
    ) -> Sequence[int]:
        """Route ``updates`` (Algorithm 3's S / Algorithm 5's subsets).

        Appends each delivered ``(dest slot, value)`` pair to the
        ``array('q')`` buffers ``out_slots[y]`` / ``out_vals[y]`` and
        returns the destination hosts that receive a message this
        activation, in ascending order for broadcast and in
        first-touch order for p2p. Charges the Figure-5 overhead to
        :attr:`estimates_sent`.
        """
        dests, sent = self.kb.route_updates(
            updates, self.est, self.deliver_offsets, self.deliver_hosts,
            self.deliver_slots, self.shard.neighbor_hosts, self.broadcast,
            out_slots, out_vals, self.host_counts,
        )
        self.estimates_sent += sent
        return dests
