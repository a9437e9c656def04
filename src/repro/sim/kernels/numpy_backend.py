"""The optional vectorised numpy kernel backend.

Implements the :class:`~repro.sim.kernels.base.KernelBackend` contract
with whole-phase array operations instead of per-node Python loops:
bucket counting becomes a segmented sort, support seeding becomes a
``bincount``, mailbox folds become masked gathers, and the shard
cascade runs as synchronous (Jacobi) relaxation rounds of the same
monotone operator — safe because Algorithm 4's fixpoint, changed set
and exact support counters are schedule-independent (the flat
one-to-many engine's module docstring carries the argument; the
backend-equivalence suite asserts bit-identity against the stdlib
backend on every gated configuration).

The heart is :meth:`NumpyBackend._batch_core`: Algorithm 2 for many
nodes at once. Per node, ``computeIndex`` needs the largest
``i <= k`` with at least ``i`` neighbour estimates ``>= i``. Clamp the
estimates to ``k``, sort them *descending within each node's segment*
(one global ``np.sort`` over ``segment * B - value`` keys — segments
occupy disjoint key blocks, so one flat sort sorts every segment), and
the answer is the largest in-segment position ``p`` with
``sorted[p] >= p + 1`` — the classic h-index-by-sorting identity,
floored at 1 to match the scalar kernel's downward scan. The
post-condition support ``#{clamped >= t}`` falls out of the same
sorted array with a segmented sum.

The SNAP text parse (:meth:`NumpyBackend.parse_edge_block`) validates a
block before it converts it: every byte an ASCII digit, space, tab or
newline, exactly two digit runs per line (each line's second run opens
before its newline, the next line's first after it), no run longer
than 18 digits. Such a block reads the same under ``int()`` and under
one ``np.fromstring(..., sep=" ")``, which converts it several times
faster than ``split()`` and ``int()``; anything else returns ``None``
and the reader asks the stdlib parse.

This module must only be imported through
:func:`repro.sim.kernels.resolve_backend`, which gates on numpy being
importable; nothing else in the package (or the engines) touches numpy,
so stdlib-only environments never pay — or need — the import.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.sim.kernels.base import KernelBackend, ShardTables

__all__ = ["NumpyBackend"]

_I64 = np.int64
_UNSEEN = np.iinfo(_I64).max  # an untouched _first_seen scratch entry

#: The longest id the text parse converts: 18 digits always fit in an
#: int64, so ``np.fromstring`` cannot overflow; longer ids go to ``int()``.
_MAX_DIGITS = 18


def _csr_offsets(counts):
    """``[0, cumsum(counts)...]``: CSR offsets from per-row counts."""
    offsets = np.zeros(len(counts) + 1, dtype=_I64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _segments(offsets, nodes):
    """Gather indices for the concatenated CSR slices of ``nodes``.

    Returns ``(seg, idx, starts, lens)``: ``idx`` indexes the flat edge
    array so ``flat[idx]`` concatenates every node's slice, ``seg[p]``
    is the position in ``nodes`` that element ``p`` belongs to, and
    ``starts`` (length ``len(nodes) + 1``) bounds each segment.
    """
    lens = offsets[nodes + 1] - offsets[nodes]
    starts = _csr_offsets(lens)
    total = int(starts[-1])
    seg = np.repeat(np.arange(len(nodes), dtype=_I64), lens)
    idx = offsets[nodes][seg] + (np.arange(total, dtype=_I64) - starts[seg])
    return seg, idx, starts, lens


def _distinct(values):
    """The distinct values, ascending: ``np.unique(values)`` by one sort
    and a neighbour comparison, without ``np.unique``'s per-call cost."""
    out = np.sort(values)
    if len(out) > 1:
        keep = np.empty(len(out), dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def _sort_key(values, bound: int):
    """``values`` (all in ``[0, bound)``) as a stable-sort key: uint16
    when they fit, which numpy radix-sorts several times faster."""
    return values.astype(np.uint16) if bound <= 1 << 16 else values


def _first_seen(values, scratch):
    """The distinct ``values`` in first-encounter order, found by a
    position min-fold instead of a sort, and each value's index into
    them. ``scratch`` is ``_UNSEEN`` wherever ``values`` index it, on
    entry and on exit."""
    pos = np.arange(len(values), dtype=_I64)
    np.minimum.at(scratch, values, pos)
    distinct = values[scratch[values] == pos]
    scratch[distinct] = np.arange(len(distinct), dtype=_I64)
    rank = scratch[values]
    scratch[distinct] = _UNSEEN
    return distinct, rank


def _to_q(values) -> array:
    """Copy an i64 ndarray into a fresh ``array('q')`` (one block copy)."""
    out = array("q")
    out.frombytes(memoryview(np.ascontiguousarray(values, dtype=_I64)).cast("B"))
    return out


class NumpyBackend(KernelBackend):
    """Flat kernels over ``numpy.int64`` buffers (see module doc)."""

    name = "numpy"

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------
    def full(self, n: int, fill: int = 0):
        return np.full(n, fill, dtype=_I64)

    def graph_array(self, arr):
        if isinstance(arr, np.ndarray):
            return arr
        # array('q') exposes the buffer protocol: zero-copy view
        return np.frombuffer(arr, dtype=_I64) if len(arr) else np.zeros(0, _I64)

    def degrees(self, offsets, n: int):
        offsets = self.graph_array(offsets)
        return offsets[1:] - offsets[:-1]

    def worklist_flags(self, n: int):
        return None  # dedupe happens by sorting, no flag scratch

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------
    def _batch_core(self, seg, starts, caps_seg, vals):
        """Segmented Algorithm 2 over pre-gathered neighbour values.

        ``vals[p]`` is a neighbour estimate belonging to segment
        ``seg[p]`` with cap ``caps_seg[p]``; all segments are non-empty
        and all caps >= 1. Returns ``(t, support)`` per segment.
        """
        clamped = np.minimum(vals, caps_seg)
        # disjoint key blocks per segment; caps >= clamped >= 0
        bound = int(clamped.max()) + 2 if len(clamped) else 2
        key = seg * bound + (bound - 1 - clamped)
        key.sort()
        desc = (bound - 1) - (key - seg * bound)  # descending per segment
        pos = np.arange(len(vals), dtype=_I64) - starts[seg]
        rank = pos + 1
        t = np.maximum.reduceat(
            np.where(desc >= rank, rank, 0), starts[:-1]
        )
        # the scalar kernel's downward scan bottoms out at 1
        np.maximum(t, 1, out=t)
        support = np.add.reduceat(
            (desc >= t[seg]).astype(_I64), starts[:-1]
        )
        return t, support

    # ------------------------------------------------------------------
    # one-to-one lockstep phases
    # ------------------------------------------------------------------
    def seed_estimates(self, offsets, targets, owner, degree, est, sup, in_frontier):
        np.take(degree, targets, out=est)
        qualifying = est >= degree[owner]
        sup[:] = np.bincount(owner[qualifying], minlength=len(degree))
        return np.nonzero(sup < degree)[0]

    def fold_slots(self, slots, incoming, est, owner, core, sup, in_frontier):
        empty = np.zeros(0, dtype=_I64)
        if not len(slots):
            return empty
        vals = incoming[slots]
        old = est[slots]
        lowered = vals < old
        if not lowered.any():
            return empty
        hit = slots[lowered]
        vals = vals[lowered]
        old = old[lowered]
        est[hit] = vals  # slots are unique within a round: plain scatter
        owners = owner[hit]
        levels = core[owners]
        crossing = (old >= levels) & (vals < levels)
        starved = owners[crossing]
        np.subtract.at(sup, starved, 1)
        cand = _distinct(starved)
        return cand[sup[cand] < core[cand]]

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
        optimize,
        scratch,
        in_frontier,
    ):
        if not len(frontier):
            return 0, np.zeros(0, dtype=_I64)
        caps = core[frontier]
        seg, idx, starts, _ = _segments(offsets, frontier)
        vals = est[idx]
        t, support = self._batch_core(seg, starts, caps[seg], vals)
        sup[frontier] = support
        dropped = t < caps
        core[frontier[dropped]] = t[dropped]
        emitting = dropped[seg]
        if optimize:
            # the Section 3.1.2 filter: only send below the neighbour's
            # last-heard estimate (est is untouched during this phase)
            emitting &= t[seg] < vals
        slots = mirror[idx[emitting]]
        incoming[slots] = t[seg[emitting]]
        counts = np.bincount(seg[emitting], minlength=len(frontier))
        senders = counts > 0
        sent[frontier[senders]] += counts[senders]
        return int(counts.sum()), slots

    # ------------------------------------------------------------------
    # one-to-many shard phases
    # ------------------------------------------------------------------
    def seed_shard(self, offsets, targets, n_owned, n_ext, infinity, est, sup, queued):
        degree = offsets[1:] - offsets[:-1]
        est[:n_owned] = degree
        est[n_owned:] = infinity
        if len(targets):
            owner = np.repeat(np.arange(n_owned, dtype=_I64), degree)
            qualifying = est[targets] >= degree[owner]
            sup[:] = np.bincount(owner[qualifying], minlength=n_owned)
        else:
            sup[:] = 0
        return np.nonzero(sup < degree)[0]

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
    ):
        # Jacobi relaxation rounds of Algorithm 4's monotone operator:
        # recompute the whole dirty set from a snapshot, apply every
        # drop at once, then derive the next dirty set from the level
        # crossings — same fixpoint, changed set and exact sup as the
        # stdlib worklist (schedule independence).
        flags = np.frombuffer(changed_flag, dtype=np.uint8)
        while len(dirty):
            caps = est[dirty]
            seg, idx, starts, _ = _segments(offsets, dirty)
            snapshot = est[targets[idx]]
            t, support = self._batch_core(seg, starts, caps[seg], snapshot)
            sup[dirty] = support
            drop = t < caps
            du = dirty[drop]
            if not len(du):
                break
            new_levels = t[drop]
            old_levels = caps[drop]
            est[du] = new_levels
            fresh = du[flags[du] == 0]
            flags[fresh] = 1
            changed_list.extend(fresh.tolist())
            # propagate: internal neighbours whose level the drop
            # crossed lose one support each (batch formula: crossings
            # are measured against the *post-round* neighbour levels)
            seg2, idx2, _, _ = _segments(offsets, du)
            nbrs = targets[idx2]
            internal = nbrs < n_owned
            nbrs = nbrs[internal]
            cur = old_levels[seg2[internal]]
            new = new_levels[seg2[internal]]
            levels = est[nbrs]
            crossing = (cur >= levels) & (new < levels)
            starved = nbrs[crossing]
            np.subtract.at(sup, starved, 1)
            cand = _distinct(starved)
            dirty = cand[sup[cand] < est[cand]]

    def fold_mailbox(
        self, slots, vals, n_owned, est, sup, watch_offsets, watch_targets, queued
    ):
        empty = np.zeros(0, dtype=_I64)
        if not len(slots):
            return empty
        # view array('q') mailboxes (np.asarray would keep their "q"
        # dtype, off ufunc.at's fast path); nothing returned aliases
        # them, as the engine clears them next
        as_i64 = np.frombuffer if isinstance(slots, array) else np.asarray
        slots = as_i64(slots, dtype=_I64)
        vals = as_i64(vals, dtype=_I64)
        ext = est[n_owned:]
        lowering = vals < ext[slots]
        if not lowering.any():
            return empty
        slots = slots[lowering]
        uniq = _distinct(slots)
        old = ext[uniq]
        # estimates only decrease, so the sequential fold's net effect
        # per slot is the pairwise min
        np.minimum.at(ext, slots, vals[lowering])
        new = ext[uniq]
        seg, idx, _, _ = _segments(watch_offsets, uniq)
        watchers = watch_targets[idx]
        levels = est[watchers]  # owned estimates are untouched by folds
        crossing = (old[seg] >= levels) & (new[seg] < levels)
        starved = watchers[crossing]
        np.subtract.at(sup, starved, 1)
        cand = _distinct(starved)
        return cand[sup[cand] < est[cand]]

    # ------------------------------------------------------------------
    # SNAP ingest and CSR build
    # ------------------------------------------------------------------
    def parse_edge_block(self, text):
        # the checks of the module docstring, then one conversion
        try:
            raw = text.encode("ascii")
        except UnicodeEncodeError:
            return None
        byte = np.frombuffer(raw, dtype=np.uint8)
        digit = byte - np.uint8(48) < 10  # uint8 wraps below "0"
        newline = byte == 10
        if not (digit | newline | (byte == 32) | (byte == 9)).all():
            return None
        # each digit run opens and closes at a flip of `digit`; the
        # block ends in a newline, so the flips pair up
        flips = np.flatnonzero(np.diff(digit, prepend=False))
        starts = flips[0::2]
        lines = np.flatnonzero(newline)
        if len(starts) != 2 * len(lines):
            return None
        # exactly two runs per line: each line's second run opens
        # before its newline, the next line's first run after it
        if not (starts[1::2] < lines).all() or not (starts[2::2] > lines[:-1]).all():
            return None
        if (flips[1::2] - starts).max(initial=0) > _MAX_DIGITS:
            return None
        values = np.fromstring(raw, dtype=_I64, sep=" ")
        if len(values) != len(starts):
            return None
        return _to_q(values[0::2]), _to_q(values[1::2])

    def csr_from_edges(self, us, vs):
        us = self.graph_array(us)
        vs = self.graph_array(vs)
        ids = _distinct(np.concatenate((us, vs)))
        n = len(ids)
        # compact indices (ids already 0..n-1 are their own); self-loops
        # only testify that a node exists
        if n and (ids[0] != 0 or ids[-1] != n - 1):
            src = np.searchsorted(ids, us)
            dst = np.searchsorted(ids, vs)
        else:
            src, dst = us, vs
        proper = src != dst
        src = src[proper]
        dst = dst[proper]
        # both directions as packed (source, target) keys: one sort
        # orders them by source, then target, and neighbour comparison
        # drops the repeats (n < 2**31.5, so src * n + dst fits in i64)
        keys = _distinct(np.concatenate((src * n + dst, dst * n + src)))
        src = keys // n
        offsets = _csr_offsets(np.bincount(src, minlength=n))
        return _to_q(offsets), _to_q(keys - src * n), _to_q(ids)

    def csr_companions(self, offsets, targets):
        offsets = self.graph_array(offsets)
        targets = self.graph_array(targets)
        n = len(offsets) - 1
        owners = np.repeat(np.arange(n, dtype=_I64), np.diff(offsets))
        # the forward keys owners * n + targets ascend in slot order, and
        # each slot's reverse key targets * n + owners is the forward key
        # of its reverse slot: sorting the reverse keys therefore lists,
        # at position j, the slot whose reverse is j — the mirror, which
        # is an involution. The keys are distinct, so any sort agrees
        # (n < 2**31.5, so the keys fit in i64).
        mirror = np.argsort(targets * n + owners)
        return _to_q(owners), _to_q(mirror)

    # ------------------------------------------------------------------
    # partition tables
    # ------------------------------------------------------------------
    def shard_tables(self, offsets, targets, host_of, num_hosts):
        offsets = self.graph_array(offsets)
        targets = self.graph_array(targets)
        host = self.graph_array(host_of)
        n = len(host)
        # owned nodes grouped by host, ascending within each (stable)
        order = np.argsort(_sort_key(host, num_hosts), kind="stable")
        bounds = _csr_offsets(np.bincount(host, minlength=num_hosts))
        # local rank of every node within its owning shard
        local_of = np.empty(n, dtype=_I64)
        local_of[order] = np.arange(n, dtype=_I64) - bounds[host[order]]
        # first-encounter scratch shared by all shards (see _first_seen)
        node_seen = np.full(n, _UNSEEN, dtype=_I64)
        host_seen = np.full(num_hosts, _UNSEEN, dtype=_I64)

        # one shard at a time, so the temporaries stay bounded by one
        # shard's edges; each shard's tables leave as array('q') copies
        built = []
        for x in range(num_hosts):
            owned = order[bounds[x]:bounds[x + 1]]
            n_owned = len(owned)
            seg, idx, starts, _ = _segments(offsets, owned)
            t = targets[idx]
            ext = host[t] != x
            ext_t = t[ext]
            # ext slots number the external nodes by first encounter
            ext_global, slot = _first_seen(ext_t, node_seen)
            n_ext = len(ext_global)
            loc = local_of[t]
            loc[ext] = n_owned + slot
            # watchers: the owners of the edges into each slot, in
            # scan order (stable sort by slot)
            watch_targets = seg[ext][np.argsort(_sort_key(slot, n_ext), kind="stable")]
            watch_counts = np.bincount(slot, minlength=n_ext)
            ext_host = host[ext_global]
            # directed cut per host, keyed in first-encounter order
            ys, y_rank = _first_seen(ext_host, host_seen)
            y_count = np.bincount(y_rank[slot], minlength=len(ys))
            built.append(ShardTables(
                owned_global=_to_q(owned),
                offsets=_to_q(starts),
                targets=_to_q(loc),
                ext_global=_to_q(ext_global),
                ext_host=_to_q(ext_host),
                watch_offsets=_to_q(_csr_offsets(watch_counts)),
                watch_targets=_to_q(watch_targets),
                deliver_offsets=array("q", [0]),
                deliver_hosts=array("q"),
                deliver_slots=array("q"),
                cut_to=dict(zip(ys.tolist(), y_count.tolist())),
            ))

        # delivery side, as in the stdlib kernel: count each node's
        # watching hosts, lay the pairs out in (host, local node) order,
        # then fill host by host — y ascending within each node
        ext_lists = [self.graph_array(tables.ext_global) for tables in built]
        count = np.zeros(n, dtype=_I64)
        for ext_global in ext_lists:
            count[ext_global] += 1  # unique within one shard
        layout = _csr_offsets(count[order])
        cursor = np.empty(n, dtype=_I64)
        cursor[order] = layout[:-1]
        hosts_flat = np.empty(int(layout[-1]), dtype=_I64)
        slots_flat = np.empty(int(layout[-1]), dtype=_I64)
        for y, ext_global in enumerate(ext_lists):
            p = cursor[ext_global]
            hosts_flat[p] = y
            slots_flat[p] = np.arange(len(ext_global), dtype=_I64)
            cursor[ext_global] = p + 1
        out = []
        for x, tables in enumerate(built):
            offs = layout[bounds[x]:bounds[x + 1] + 1]
            lo = int(offs[0])
            hi = int(offs[-1])
            out.append(tables._replace(
                deliver_offsets=_to_q(offs - lo),
                deliver_hosts=_to_q(hosts_flat[lo:hi]),
                deliver_slots=_to_q(slots_flat[lo:hi]),
            ))
        return out

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
    ):
        if not len(nodes) or not neighbor_hosts:
            return (), 0
        nodes = np.asarray(nodes, dtype=_I64)
        seg, idx, _, _ = _segments(deliver_offsets, nodes)
        sent = len(idx)
        if sent:
            # group the pairs by destination; the stable sort keeps
            # update order inside each group, as the stdlib loop appends
            hosts = deliver_hosts[idx]
            by_host = np.argsort(_sort_key(hosts, len(host_counts)), kind="stable")
            hosts = hosts[by_host]
            # raw i64 bytes: each group leaves with one frombytes
            slots = deliver_slots[idx[by_host]].view(np.uint8)
            vals = est[nodes[seg[by_host]]].view(np.uint8)
            starts = [0, *(np.flatnonzero(np.diff(hosts)) + 1).tolist()]
            dests = hosts[starts]
            for y, lo, hi in zip(dests.tolist(), starts, starts[1:] + [sent]):
                out_slots[y].frombytes(slots[8 * lo:8 * hi])
                out_vals[y].frombytes(vals[8 * lo:8 * hi])
        if broadcast:
            return neighbor_hosts, len(nodes)
        if not sent:
            return [], 0
        # first touch: each destination's earliest pair in update order
        # is its group's first element (stable sort)
        return dests[np.argsort(by_host[starts])].tolist(), sent

    # ------------------------------------------------------------------
    # bulk-synchronous sweeps
    # ------------------------------------------------------------------
    def hindex_sweep(self, offsets, targets, values, scratch):
        n = len(values)
        out = np.zeros(n, dtype=_I64)
        if len(targets):
            # degree-0 nodes stay 0; so do nodes already at value 0
            # (computeIndex returns 0 whenever its cap is <= 0)
            nodes = np.nonzero(
                ((offsets[1:] - offsets[:-1]) > 0) & (values > 0)
            )[0]
            seg, idx, starts, _ = _segments(offsets, nodes)
            t, _ = self._batch_core(
                seg, starts, values[nodes][seg], values[targets[idx]]
            )
            out[nodes] = t
        changed = bool((out != values).any())
        return changed, out

    def count_intra(self, slots, owner, targets, worker_of):
        if slots is None:
            return int(
                (worker_of[owner] == worker_of[targets]).sum()
            )
        if not len(slots):
            return 0
        return int(
            (worker_of[owner[slots]] == worker_of[targets[slots]]).sum()
        )

    def count_distinct_owners(self, slots, owner, n):
        if slots is None:
            return int(len(_distinct(owner)))
        if not len(slots):
            return 0
        return int(len(_distinct(owner[slots])))
