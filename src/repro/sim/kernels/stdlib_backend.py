"""The canonical pure-stdlib kernel backend.

These are the PR 1-3 hot loops, extracted verbatim from
``sim/flat_engine.py`` and ``sim/flat_many_engine.py`` so that every
flat engine (and the flat h-index / Pregel baselines) shares one copy.
This backend *defines* the kernel contract of
:mod:`repro.sim.kernels.base`: alternative backends are validated
against it bit-for-bit. It needs nothing beyond ``array`` and
``collections`` and is always available — the default everywhere.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import chain

from repro.core.compute_index import compute_index
from repro.sim.kernels.base import KernelBackend, ShardTables

__all__ = ["StdlibBackend"]

#: Stands in for each newline so one ``split()`` keeps line structure;
#: ``int()`` rejects it.
_EOL = "\x00"


class StdlibBackend(KernelBackend):
    """Flat kernels over stdlib ``array('q')`` buffers (see module doc)."""

    name = "stdlib"

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------
    def full(self, n: int, fill: int = 0):
        return array("q", [fill]) * n

    def graph_array(self, arr):
        return arr

    def degrees(self, offsets, n: int):
        deg = array("q", [0]) * n
        for i in range(n):
            deg[i] = offsets[i + 1] - offsets[i]
        return deg

    def worklist_flags(self, n: int):
        return bytearray(n)

    # ------------------------------------------------------------------
    # one-to-one lockstep phases
    # ------------------------------------------------------------------
    def seed_estimates(self, offsets, targets, owner, degree, est, sup, in_frontier):
        frontier = []
        push = frontier.append
        for v in range(len(degree)):
            lo = offsets[v]
            hi = offsets[v + 1]
            k = hi - lo
            s = 0
            for e in range(lo, hi):
                d = degree[targets[e]]
                est[e] = d
                if d >= k:
                    s += 1
            sup[v] = s
            if s < k:
                in_frontier[v] = 1
                push(v)
        return frontier

    def fold_slots(self, slots, incoming, est, owner, core, sup, in_frontier):
        # only deliveries that push a node's support below its core need
        # a recompute — every other message is a single array write
        frontier = []
        push = frontier.append
        for slot in slots:
            value = incoming[slot]
            old = est[slot]
            if value < old:
                est[slot] = value
                v = owner[slot]
                k = core[v]
                if old >= k and value < k:
                    s = sup[v] - 1
                    sup[v] = s
                    if s < k and not in_frontier[v]:
                        in_frontier[v] = 1
                        push(v)
        return frontier

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
        est_view = memoryview(est) if len(est) else est
        _compute_index = compute_index
        sends = 0
        slots_next: list[int] = []
        emit = slots_next.append
        for v in frontier:
            in_frontier[v] = 0
            lo = offsets[v]
            hi = offsets[v + 1]
            k = core[v]
            t = _compute_index(est_view[lo:hi], k, scratch)
            # scratch is the suffix-summed bucket array of that call:
            # scratch[t] == #{slots with est >= t}, the fresh support
            sup[v] = scratch[t]
            if t < k:
                core[v] = t
                count = 0
                for e in range(lo, hi):
                    if optimize and t >= est[e]:
                        continue
                    slot = mirror[e]
                    incoming[slot] = t
                    emit(slot)
                    count += 1
                if count:
                    sent[v] += count
                    sends += count
        return sends, slots_next

    # ------------------------------------------------------------------
    # one-to-many shard phases
    # ------------------------------------------------------------------
    def seed_shard(self, offsets, targets, n_owned, n_ext, infinity, est, sup, queued):
        for u in range(n_owned):
            est[u] = offsets[u + 1] - offsets[u]
        for s in range(n_ext):
            est[n_owned + s] = infinity
        # seed supports: neighbours start at their degree (internal) or
        # +inf (external); only nodes already under-supported at their
        # own degree can drop in the initial cascade
        dirty: deque[int] = deque()
        for u in range(n_owned):
            lo = offsets[u]
            hi = offsets[u + 1]
            k = hi - lo
            s = 0
            for t in targets[lo:hi]:
                if est[t] >= k:
                    s += 1
            sup[u] = s
            if s < k:
                queued[u] = 1
                dirty.append(u)
        return dirty

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
        # Algorithm 4 as a worklist: every queued node has sup < est, so
        # every pop genuinely recomputes; a drop at u propagates to
        # internal neighbours by adjusting their sup for the crossing
        # and enqueueing only those pushed under their own estimate.
        _compute_index = compute_index
        queue = dirty
        while queue:
            u = queue.popleft()
            queued[u] = 0
            cur = est[u]
            nbrs = targets[offsets[u]:offsets[u + 1]]
            k = _compute_index([est[t] for t in nbrs], cur, scratch)
            # scratch[k] is the suffix count #{est >= k}: the refreshed
            # support (compute_index's post-condition)
            sup[u] = scratch[k]
            if k < cur:
                est[u] = k
                if not changed_flag[u]:
                    changed_flag[u] = 1
                    changed_list.append(u)
                for t in nbrs:
                    if t < n_owned:
                        level = est[t]
                        if cur >= level and k < level:
                            s = sup[t] - 1
                            sup[t] = s
                            if s < level and not queued[t]:
                                queued[t] = 1
                                queue.append(t)

    def fold_mailbox(
        self, slots, vals, n_owned, est, sup, watch_offsets, watch_targets, queued
    ):
        dirty: deque[int] = deque()
        for s, value in zip(slots, vals):
            pos = n_owned + s
            old = est[pos]
            if value < old:
                est[pos] = value
                # a watcher needs a recompute only when the drop crosses
                # its level and starves its support
                for u in watch_targets[watch_offsets[s]:watch_offsets[s + 1]]:
                    level = est[u]
                    if old >= level and value < level:
                        c = sup[u] - 1
                        sup[u] = c
                        if c < level and not queued[u]:
                            queued[u] = 1
                            dirty.append(u)
        return dirty

    # ------------------------------------------------------------------
    # SNAP ingest and CSR build
    # ------------------------------------------------------------------
    def parse_edge_block(self, text):
        # lines of exactly two fields give (u, v, _EOL) triples; a line
        # of any other width either changes the token count or pushes an
        # _EOL into an endpoint column, where int() rejects it
        tokens = text.replace("\n", f" {_EOL} ").split()
        if len(tokens) == 3 * text.count("\n"):
            try:
                return (
                    array("q", map(int, tokens[0::3])),
                    array("q", map(int, tokens[1::3])),
                )
            except (ValueError, OverflowError):
                pass
        return None

    def csr_from_edges(self, us, vs):
        ids = sorted(set(us).union(vs))
        n = len(ids)
        if n and (ids[0] != 0 or ids[-1] != n - 1):
            # sparse ids: compact them (contiguous ids already are)
            index_of = dict(zip(ids, range(n)))
            us = list(map(index_of.__getitem__, us))
            vs = list(map(index_of.__getitem__, vs))
        # appending to per-row lists, then writing each row's sorted
        # distinct neighbours straight into the output, beats a set
        # insert per pair and leaves few containers alive for the cycle
        # collector to scan
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in zip(us, vs):
            if u != v:  # a self-loop only testifies that u exists
                rows[u].append(v)
                rows[v].append(u)
        offsets, targets = array("q", [0]), array("q")
        for row in rows:
            targets.extend(sorted(set(row)))
            offsets.append(len(targets))
        return offsets, targets, array("q", ids)

    def csr_companions(self, offsets, targets):
        n = len(offsets) - 1
        owners = array("q", [0]) * len(targets)
        for i in range(n):
            lo = offsets[i]
            hi = offsets[i + 1]
            if hi > lo:
                owners[lo:hi] = array("q", [i]) * (hi - lo)
        # one O(m) cursor pass: scanning edges in (owner, target) order
        # visits the in-edges of each node v with owners ascending —
        # exactly v's (sorted) slice order — so each reverse position is
        # the next unfilled slot of v's slice
        mirror = array("q", [0]) * len(targets)
        cursor = array("q", offsets[:n])
        for e, v in enumerate(targets):
            slot = cursor[v]
            cursor[v] = slot + 1
            mirror[e] = slot
        return owners, mirror

    # ------------------------------------------------------------------
    # partition tables
    # ------------------------------------------------------------------
    def shard_tables(self, offsets, targets, host_of, num_hosts):
        n = len(host_of)
        owned_per: list[list[int]] = [[] for _ in range(num_hosts)]
        for i in range(n):
            owned_per[host_of[i]].append(i)
        # local rank of every global node within its owning shard
        local_of = array("q", [0]) * n
        for nodes in owned_per:
            for rank, i in enumerate(nodes):
                local_of[i] = rank

        # ext-slot scratch, shared across shards: slot_of[g] is g's ext
        # slot while building the current shard, -1 otherwise (reset via
        # the shard's own ext list — only touched entries are cleared)
        slot_of = array("q", [-1]) * n
        built = []
        for x, owned in enumerate(owned_per):
            n_owned = len(owned)
            # single pass over the shard's edges: local CSR, the
            # external index space (first-encounter order) and the
            # watcher lists all at once
            ext_list: list[int] = []
            loc_offsets = array("q", [0]) * (n_owned + 1)
            loc: list[int] = []
            loc_append = loc.append
            watchers: list[list[int]] = []
            for u, i in enumerate(owned):
                # iterating the slice directly keeps the inner loop on
                # C-level array iteration instead of index arithmetic
                for j in targets[offsets[i]:offsets[i + 1]]:
                    if host_of[j] == x:
                        loc_append(local_of[j])
                    else:
                        s = slot_of[j]
                        if s < 0:
                            s = len(ext_list)
                            slot_of[j] = s
                            ext_list.append(j)
                            watchers.append([u])
                        else:
                            watchers[s].append(u)
                        loc_append(n_owned + s)
                loc_offsets[u + 1] = len(loc)
            for g in ext_list:
                slot_of[g] = -1
            ext_host = array("q", [host_of[g] for g in ext_list])
            watch_offsets = array("q", [0]) * (len(ext_list) + 1)
            # the per-host directed cut falls out of the watcher lists:
            # every edge into ext node s is one directed edge toward the
            # host owning s
            cut_to: dict[int, int] = {}
            cut_get = cut_to.get
            for s, us in enumerate(watchers):
                watch_offsets[s + 1] = watch_offsets[s] + len(us)
                y = ext_host[s]
                cut_to[y] = cut_get(y, 0) + len(us)
            built.append(ShardTables(
                owned_global=array("q", owned),
                offsets=loc_offsets,
                targets=array("q", loc),
                ext_global=array("q", ext_list),
                ext_host=ext_host,
                watch_offsets=watch_offsets,
                watch_targets=array("q", chain.from_iterable(watchers)),
                deliver_offsets=array("q", [0]),
                deliver_hosts=array("q"),
                deliver_slots=array("q"),
                cut_to=cut_to,
            ))

        # delivery side (needs every shard's ext index space): u is in
        # x's border toward y  <=>  u appears in y's external set, so
        # one sweep over the ext lists yields every (node, watching
        # host) pair. Count the pairs per node, lay them out per shard
        # in local-node order, then fill — y ascending within a node.
        count = array("q", [0]) * n
        for tables in built:
            for g in tables.ext_global:
                count[g] += 1
        cursor = array("q", [0]) * n
        deliver_offsets = []
        pos = 0
        for owned in owned_per:
            offs = array("q", [0]) * (len(owned) + 1)
            base = pos
            for u, g in enumerate(owned):
                cursor[g] = pos
                pos += count[g]
                offs[u + 1] = pos - base
            deliver_offsets.append(offs)
        hosts_flat = array("q", [0]) * pos
        slots_flat = array("q", [0]) * pos
        for y, tables in enumerate(built):
            s = 0
            for g in tables.ext_global:
                p = cursor[g]
                hosts_flat[p] = y
                slots_flat[p] = s
                cursor[g] = p + 1
                s += 1
        out = []
        pos = 0
        for tables, offs in zip(built, deliver_offsets):
            end = pos + offs[-1]
            out.append(tables._replace(
                deliver_offsets=offs,
                deliver_hosts=hosts_flat[pos:end],
                deliver_slots=slots_flat[pos:end],
            ))
            pos = end
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
        if broadcast:
            # one transmission; every estimate counted once, every
            # neighbour host receives a message (even an irrelevant one —
            # only border pairs are actually delivered, the rest the
            # object engine's fold would ignore anyway)
            for u in nodes:
                k = est[u]
                lo = deliver_offsets[u]
                hi = deliver_offsets[u + 1]
                for y, s in zip(deliver_hosts[lo:hi], deliver_slots[lo:hi]):
                    out_slots[y].append(s)
                    out_vals[y].append(k)
            return neighbor_hosts, len(nodes)
        # per-destination subsets; a message exists only where the
        # subset is non-empty, and each (estimate, destination) pair
        # costs one overhead unit
        touched: list[int] = []
        for u in nodes:
            k = est[u]
            lo = deliver_offsets[u]
            hi = deliver_offsets[u + 1]
            for y, s in zip(deliver_hosts[lo:hi], deliver_slots[lo:hi]):
                out_slots[y].append(s)
                out_vals[y].append(k)
                c = host_counts[y]
                if not c:
                    touched.append(y)
                host_counts[y] = c + 1
        sent = 0
        for y in touched:
            sent += host_counts[y]
            host_counts[y] = 0
        return touched, sent

    # ------------------------------------------------------------------
    # streaming maintenance
    # ------------------------------------------------------------------
    def reconverge_from_bounds(self, starts, used, targets, est, frontier,
                               scratch):
        # synchronous (Jacobi) rounds so the round count matches the
        # vectorised backend. A row at k >= 2 with a live slot drops
        # exactly when its support (live neighbours at >= k) is below k,
        # so only those rows run computeIndex. ``sup`` holds the support
        # of every row counted in this call: round 1 counts the
        # frontier, a dropped row takes the suffix count scratch[new],
        # and a drop old -> new takes one support from each neighbour
        # whose level it crosses (old >= level > new). A neighbour's
        # first crossing gets it counted once the round's drops are
        # applied, so its count already holds them; a row no drop
        # crosses keeps the support it had when the call began.
        _compute_index = compute_index
        sup: dict[int, int] = {}
        changed: set[int] = set()
        # rows to count and rows whose support fell below their level,
        # each once, in first-touch order (dicts drain deterministically)
        fresh = dict.fromkeys(u for u in frontier if est[u] > 0)
        low: dict[int, None] = {}
        more = bool(fresh)
        rounds = 0
        while more:
            rounds += 1
            drops: list[tuple[int, int, int]] = []
            for u in fresh:
                k = est[u]
                s = starts[u]
                vals = [est[t] for t in targets[s:s + used[u]] if t >= 0]
                c = sum(map(k.__le__, vals))
                if not vals:
                    drops.append((u, k, 0))
                elif c < k and k > 1:
                    new = _compute_index(vals, k, scratch)
                    c = scratch[new]
                    drops.append((u, k, new))
                sup[u] = c
            for u in low:
                k = est[u]
                if k > 1:
                    s = starts[u]
                    new = _compute_index(
                        [est[t] for t in targets[s:s + used[u]] if t >= 0],
                        k,
                        scratch,
                    )
                    sup[u] = scratch[new]
                    drops.append((u, k, new))
            if not drops:
                break
            for u, _, new in drops:
                est[u] = new
                changed.add(u)
            fresh = {}
            low = {}
            more = False
            for u, old, new in drops:
                s = starts[u]
                for t in targets[s:s + used[u]]:
                    if t < 0:
                        continue
                    level = est[t]
                    if level > 0:
                        # the next round runs, with or without a drop
                        more = True
                        if old >= level > new:
                            c = sup.get(t)
                            if c is None:
                                fresh[t] = None
                            else:
                                sup[t] = c - 1
                                if c <= level:
                                    low[t] = None
        return sorted(changed), rounds

    # ------------------------------------------------------------------
    # bulk-synchronous sweeps
    # ------------------------------------------------------------------
    def hindex_sweep(self, offsets, targets, values, scratch):
        _compute_index = compute_index
        n = len(values)
        out = array("q", [0]) * n
        changed = False
        for u in range(n):
            lo = offsets[u]
            hi = offsets[u + 1]
            if hi > lo:
                # isolated nodes have coreness 0; computeIndex's scan
                # bottoms out at 1, which is only right for degree >= 1
                new = _compute_index(
                    (values[targets[e]] for e in range(lo, hi)),
                    values[u],
                    scratch,
                )
            else:
                new = 0
            out[u] = new
            if new != values[u]:
                changed = True
        return changed, out

    def count_intra(self, slots, owner, targets, worker_of):
        if slots is None:
            slots = range(len(targets))
        count = 0
        for slot in slots:
            if worker_of[owner[slot]] == worker_of[targets[slot]]:
                count += 1
        return count

    def count_distinct_owners(self, slots, owner, n):
        if slots is None:
            slots = range(len(owner))
        seen = bytearray(n)
        count = 0
        for slot in slots:
            u = owner[slot]
            if not seen[u]:
                seen[u] = 1
                count += 1
        return count
