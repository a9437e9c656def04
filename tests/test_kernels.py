"""Unit tests for the shared flat-kernel layer (:mod:`repro.sim.kernels`).

The engine-level bit-identity of the backends is asserted end-to-end in
``tests/test_backend_equivalence.py``; here the registry contract and
the individual kernel primitives are pinned directly — the registry's
error behaviour, that every kernel has a caller, the numpy backend's
segmented ``computeIndex`` against the scalar kernel, the h-index sweep
against the pre-kernel reference implementation, the worker-traffic
counting helper, the shared stats-export utility, the dynamic CSR's
slot layout, and the CSR build from an edge list and its companion
arrays on both backends.
"""

from __future__ import annotations

import ast
import inspect
import random
from array import array
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.kernels as kernels
from repro.core.compute_index import compute_index
from repro.errors import ConfigurationError, NodeNotFoundError
from repro.graph import generators as gen
from repro.graph.csr import NUMPY_MIN_PAIRS, CSRGraph
from repro.graph.graph import Graph
from repro.sim.kernels import (
    DEFAULT_BACKEND,
    KernelBackend,
    StdlibBackend,
    available_backends,
    export_send_counts,
    numpy_available,
    resolve_backend,
)
from repro.sim.metrics import SimulationStats

BACKENDS = available_backends()

requires_numpy = pytest.mark.skipif(not numpy_available(), reason="needs numpy")

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def backends():
    return [resolve_backend(name) for name in BACKENDS]


class TestRegistry:
    def test_default_is_stdlib(self):
        assert DEFAULT_BACKEND == "stdlib"
        assert resolve_backend(None).name == "stdlib"
        assert resolve_backend("stdlib") is resolve_backend(None)

    def test_instances_pass_through(self):
        backend = StdlibBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_lists_options(self):
        with pytest.raises(ConfigurationError, match=r"\['stdlib', 'numpy'\]"):
            resolve_backend("warp")

    def test_available_always_leads_with_default(self):
        assert available_backends()[0] == DEFAULT_BACKEND

    def test_numpy_gate(self, monkeypatch):
        monkeypatch.setattr(kernels, "numpy_available", lambda: False)
        with pytest.raises(ConfigurationError, match="requires numpy"):
            resolve_backend("numpy")

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_numpy_backend_is_cached(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")

    def test_protocol_cannot_be_instantiated(self):
        # KernelBackend is a typing.Protocol: the abstract surface is
        # checked structurally (mypy + replay-lint RPL003), never built
        with pytest.raises(TypeError, match="[Pp]rotocol"):
            KernelBackend()

    def test_protocol_default_bodies_raise(self):
        # explicit subclasses inherit raising defaults, so a backend
        # missing a kernel fails loudly instead of returning None
        class Partial(KernelBackend):
            name = "partial"

        with pytest.raises(NotImplementedError):
            Partial().full(3)

    def test_backends_satisfy_protocol_structurally(self):
        for backend in backends():
            assert isinstance(backend, KernelBackend)


def test_every_kernel_has_a_caller():
    """Every public ``KernelBackend`` method is called as an attribute,
    ``<obj>.<kernel>(...)``, by some module of ``repro`` outside
    ``repro.sim.kernels``: a job is a kernel only when engines call it,
    so a kernel whose last caller went is deleted with it."""
    package = Path(kernels.__file__).parent
    called: set[str] = set()
    for path in package.parents[1].rglob("*.py"):
        if package in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    declared = {
        name for name, member in vars(KernelBackend).items()
        if inspect.isfunction(member) and not name.startswith("_")
    }
    assert declared and not declared - called, sorted(declared - called)


class TestTables:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_full_and_degrees(self, name):
        backend = resolve_backend(name)
        table = backend.full(5, 7)
        assert list(table) == [7] * 5
        csr = CSRGraph.from_graph(gen.star_graph(4))
        offsets = backend.graph_array(csr.offsets)
        assert list(backend.degrees(offsets, csr.num_nodes)) == [4, 1, 1, 1, 1]

    @pytest.mark.parametrize("name", BACKENDS)
    def test_graph_array_preserves_values(self, name):
        backend = resolve_backend(name)
        buf = array("q", [3, 1, 4, 1, 5])
        assert list(backend.graph_array(buf)) == [3, 1, 4, 1, 5]
        assert len(backend.graph_array(array("q"))) == 0


@requires_numpy
class TestBatchComputeIndex:
    """The numpy backend's segmented ``computeIndex`` (``_batch_core``,
    behind its frontier, cascade, re-convergence and sweep kernels) ==
    the scalar kernel, value and support."""

    def test_against_scalar_on_random_instances(self):
        import numpy as np

        from repro.sim.kernels.numpy_backend import _segments

        backend = resolve_backend("numpy")
        rng = random.Random(5)
        # a synthetic "edge value" layout: 40 nodes with mixed degrees,
        # including degree-0 nodes and cap-0 nodes
        lens = [rng.randrange(0, 9) for _ in range(40)]
        offsets = array("q", [0] * 41)
        for i, ln in enumerate(lens):
            offsets[i + 1] = offsets[i] + ln
        edge_values = array(
            "q", [rng.randrange(0, 12) for _ in range(offsets[-1])]
        )
        caps = array("q", [rng.randrange(0, 10) for _ in range(40)])
        # the core takes non-empty segments with caps >= 1; its callers
        # settle degree-0 and cap-0 rows before calling it
        run = [p for p in range(40) if lens[p] and caps[p] > 0]
        assert 0 < len(run) < 40
        seg, idx, starts, _ = _segments(
            backend.graph_array(offsets), np.array(run, dtype=np.int64)
        )
        values, supports = backend._batch_core(
            seg, starts, np.array([caps[p] for p in run])[seg],
            backend.graph_array(edge_values)[idx],
        )
        for at, p in enumerate(run):
            scratch: list[int] = []
            estimates = edge_values[offsets[p]:offsets[p + 1]]
            expected = compute_index(estimates, caps[p], scratch)
            assert values[at] == expected, p
            assert supports[at] == scratch[expected], p


class TestHindexSweep:
    """One kernel sweep == the pre-kernel object-graph reference."""

    def _reference_sweep(self, graph, values):
        nxt = {}
        changed = False
        for u in graph.nodes():
            neighbors = graph.neighbors(u)
            if neighbors:
                new = compute_index(
                    (values[v] for v in neighbors), values[u]
                )
            else:
                new = 0
            nxt[u] = new
            if new != values[u]:
                changed = True
        return changed, nxt

    @pytest.mark.parametrize("name", BACKENDS)
    def test_sweep_sequence(self, name):
        backend = resolve_backend(name)
        graph = gen.powerlaw_cluster_graph(80, 3, 0.3, seed=2)
        csr = CSRGraph.from_graph(graph)
        offsets = backend.graph_array(csr.offsets)
        targets = backend.graph_array(csr.targets)
        flat_values = backend.degrees(offsets, csr.num_nodes)
        ref_values = {u: graph.degree(u) for u in graph.nodes()}
        for _ in range(6):
            flat_changed, flat_values = backend.hindex_sweep(
                offsets, targets, flat_values, []
            )
            ref_changed, ref_values = self._reference_sweep(graph, ref_values)
            assert flat_changed == ref_changed
            assert {
                csr.ids[i]: int(flat_values[i]) for i in range(csr.num_nodes)
            } == ref_values
            if not flat_changed:
                break


class TestCountIntra:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_split_matches_bruteforce(self, name):
        backend = resolve_backend(name)
        csr = CSRGraph.from_graph(gen.grid_graph(4, 5))
        owner = backend.graph_array(csr.edge_owners())
        targets = backend.graph_array(csr.targets)
        worker_of = backend.graph_array(
            array("q", [i % 3 for i in range(csr.num_nodes)])
        )
        expected = sum(
            1
            for e in range(len(csr.targets))
            if csr.edge_owners()[e] % 3 == csr.targets[e] % 3
        )
        assert backend.count_intra(None, owner, targets, worker_of) == expected
        # a subset: every slot owned by worker 0's nodes
        subset = [
            e for e in range(len(csr.targets)) if csr.edge_owners()[e] % 3 == 0
        ]
        container = (
            subset
            if name == "stdlib"
            else backend.graph_array(array("q", subset))
        )
        expected_subset = sum(
            1 for e in subset if csr.targets[e] % 3 == 0
        )
        assert (
            backend.count_intra(container, owner, targets, worker_of)
            == expected_subset
        )


def _reference_route(updates, pairs, neighbor_hosts, broadcast, out_slots, out_vals):
    """The per-estimate routing loop ``route_updates`` replaced, over
    ``(node, estimate)`` updates and per-node ``(host, slot)`` lists."""
    if not updates or not neighbor_hosts:
        return (), 0
    if broadcast:
        for u, k in updates:
            for y, s in pairs[u]:
                out_slots[y].append(s)
                out_vals[y].append(k)
        return neighbor_hosts, len(updates)
    counts: dict[int, int] = {}
    for u, k in updates:
        for y, s in pairs[u]:
            out_slots[y].append(s)
            out_vals[y].append(k)
            counts[y] = counts.get(y, 0) + 1
    return list(counts), sum(counts.values())


class TestRouteUpdates:
    """``route_updates`` replays the reference routing loop exactly:
    per-destination ``array('q')`` buffer contents and order,
    destinations (first-touch order under p2p) and the Figure-5 count,
    on every backend."""

    HOSTS = 5

    @pytest.fixture(scope="class")
    def sharded(self):
        from repro.core.assignment import assign
        from repro.graph.sharded import ShardedCSR

        # isolated nodes 60..63 own no delivery pairs at all
        g = gen.erdos_renyi_graph(60, 0.08, seed=4)
        for v in range(60, 64):
            g.add_node(v)
        return ShardedCSR.from_graph(g, assign(g, self.HOSTS, policy="random", seed=2))

    def _route(self, backend, shard, nodes, values, broadcast, queued=()):
        """Run the kernel on fresh out buffers that already hold ``queued``."""
        est = backend.full(shard.n_owned + shard.n_ext, -1)
        for u, k in zip(nodes, values):
            est[u] = k
        out_slots = [array("q", queued) for _ in range(self.HOSTS)]
        out_vals = [array("q", queued) for _ in range(self.HOSTS)]
        scratch = array("q", [0]) * self.HOSTS
        dests, sent = backend.route_updates(
            list(nodes), est,
            backend.graph_array(shard.deliver_offsets),
            backend.graph_array(shard.deliver_hosts),
            backend.graph_array(shard.deliver_slots),
            shard.neighbor_hosts, broadcast, out_slots, out_vals, scratch,
        )
        assert not any(scratch)  # scratch is all-zero between calls
        return list(dests), sent, out_slots, out_vals

    def _expected(self, shard, nodes, values, broadcast, queued=()):
        pairs = [
            list(zip(
                shard.deliver_hosts[shard.deliver_offsets[u]:shard.deliver_offsets[u + 1]],
                shard.deliver_slots[shard.deliver_offsets[u]:shard.deliver_offsets[u + 1]],
            ))
            for u in range(shard.n_owned)
        ]
        out_slots = [array("q", queued) for _ in range(self.HOSTS)]
        out_vals = [array("q", queued) for _ in range(self.HOSTS)]
        dests, sent = _reference_route(
            list(zip(nodes, values)), pairs, shard.neighbor_hosts, broadcast,
            out_slots, out_vals,
        )
        return list(dests), sent, out_slots, out_vals

    @pytest.mark.parametrize("broadcast", [True, False])
    @pytest.mark.parametrize("name", BACKENDS)
    def test_random_batches_match_reference(self, sharded, name, broadcast):
        backend = resolve_backend(name)
        rng = random.Random(11)
        for shard in sharded.shards:
            for _ in range(25):
                size = rng.randint(1, shard.n_owned)
                # any order: the cascade's change order is backend-specific
                nodes = rng.sample(range(shard.n_owned), size)
                values = [rng.randint(0, 40) for _ in nodes]
                got = self._route(backend, shard, nodes, values, broadcast, [7])
                assert got == self._expected(
                    shard, nodes, values, broadcast, [7]
                )
                for lists in got[2] + got[3]:
                    assert all(type(v) is int for v in lists)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_p2p_first_touch_order_and_figure5_count(self, sharded, name):
        backend = resolve_backend(name)
        shard = max(sharded.shards, key=lambda s: len(s.deliver_hosts))
        offsets = shard.deliver_offsets
        # nodes by their first delivery host, descending: the earliest
        # destinations are the largest hosts
        nodes = sorted(
            (u for u in range(shard.n_owned) if offsets[u + 1] > offsets[u]),
            key=lambda u: -shard.deliver_hosts[offsets[u]],
        )
        dests, sent, _, _ = self._route(
            backend, shard, nodes, [3] * len(nodes), False
        )
        touched: list[int] = []
        for u in nodes:
            for e in range(offsets[u], offsets[u + 1]):
                if shard.deliver_hosts[e] not in touched:
                    touched.append(shard.deliver_hosts[e])
        assert dests == touched
        assert dests != sorted(dests)  # the order is really first touch
        # one unit per (estimate, destination) pair
        assert sent == sum(offsets[u + 1] - offsets[u] for u in nodes)
        _, broadcast_sent, _, _ = self._route(
            backend, shard, nodes, [3] * len(nodes), True
        )
        assert broadcast_sent == len(nodes)

    @pytest.mark.parametrize("broadcast", [True, False])
    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_batch_sends_nothing(self, sharded, name, broadcast):
        backend = resolve_backend(name)
        shard = sharded.shards[0]
        assert shard.neighbor_hosts
        assert self._route(backend, shard, [], [], broadcast) == (
            [], 0, [array("q")] * self.HOSTS, [array("q")] * self.HOSTS
        )

    @pytest.mark.parametrize("name", BACKENDS)
    def test_node_without_delivery_pairs(self, sharded, name):
        backend = resolve_backend(name)
        ids = sharded.csr.ids
        shard, u = next(
            (s, u) for s in sharded.shards for u in range(s.n_owned)
            if ids[s.owned_global[u]] >= 60
        )
        assert shard.deliver_offsets[u] == shard.deliver_offsets[u + 1]
        empty = [array("q")] * self.HOSTS
        # p2p: no destination, no cost
        assert self._route(backend, shard, [u], [0], False) == ([], 0, empty, empty)
        # broadcast: still one (empty) message per neighbour host, and
        # the estimate is counted once
        assert self._route(backend, shard, [u], [0], True) == (
            list(shard.neighbor_hosts), 1, empty, empty
        )

    @pytest.mark.parametrize(
        "num_hosts, a, b, c, d",
        [
            # every id fits 16 bits: the radix-sorted key
            (1 << 15, 3, 16384, 32766, 32767),
            (1 << 16, 3, 32767, 32768, 65535),
            # 65539 would wrap onto 3 in 16 bits
            ((1 << 16) + 4, 3, 32767, 32768, 65539),
        ],
        ids=["16-bit-key-int16-range", "16-bit-key", "int64-key"],
    )
    @pytest.mark.parametrize("broadcast", [True, False])
    @pytest.mark.parametrize("name", BACKENDS)
    def test_large_host_ids_keep_reference_order(
        self, name, broadcast, num_hosts, a, b, c, d
    ):
        backend = resolve_backend(name)
        # a hand-built delivery table over 4 owned nodes (node 2 has no
        # pairs); the update order makes the first touch b, d, a, c
        pairs = [[(a, 0), (c, 1), (d, 2)], [(b, 3), (d, 4)], [],
                 [(a, 5), (b, 6), (c, 7)]]
        offsets, hosts, slots = array("q", [0]), array("q"), array("q")
        for segment in pairs:
            hosts.extend(y for y, _ in segment)
            slots.extend(s for _, s in segment)
            offsets.append(len(hosts))
        neighbor_hosts = (a, b, c, d)
        nodes, values = [1, 3, 0, 2], [9, 8, 7, 6]
        est = backend.full(4, -1)
        for u, k in zip(nodes, values):
            est[u] = k
        out_slots: defaultdict = defaultdict(lambda: array("q", [7]))
        out_vals: defaultdict = defaultdict(lambda: array("q", [7]))
        scratch = array("q", [0]) * num_hosts
        dests, sent = backend.route_updates(
            nodes, est, backend.graph_array(offsets),
            backend.graph_array(hosts), backend.graph_array(slots),
            neighbor_hosts, broadcast, out_slots, out_vals, scratch,
        )
        assert not any(scratch)
        ref_slots: defaultdict = defaultdict(lambda: array("q", [7]))
        ref_vals: defaultdict = defaultdict(lambda: array("q", [7]))
        ref_dests, ref_sent = _reference_route(
            list(zip(nodes, values)), pairs, neighbor_hosts, broadcast,
            ref_slots, ref_vals,
        )
        assert (list(dests), sent) == (list(ref_dests), ref_sent)
        assert out_slots == ref_slots and out_vals == ref_vals
        if not broadcast:
            assert list(dests) == [b, d, a, c]


@st.composite
def _shard_mail(draw):
    """A shard's fold inputs: owned levels and supports, external
    estimates, per-ext-slot watchers (possibly none) and received
    ``(slot, value)`` pairs with repeated slots, above and below the
    current estimates."""
    n_owned = draw(st.integers(1, 6))
    n_ext = draw(st.integers(1, 6))
    levels = draw(st.lists(st.integers(0, 6), min_size=n_owned, max_size=n_owned))
    sup = draw(st.lists(st.integers(0, 6), min_size=n_owned, max_size=n_owned))
    ext = draw(st.lists(st.integers(0, 8), min_size=n_ext, max_size=n_ext))
    watchers = draw(st.lists(
        st.sets(st.integers(0, n_owned - 1)), min_size=n_ext, max_size=n_ext
    ))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n_ext - 1), st.integers(0, 9)), max_size=24
    ))
    return levels, sup, ext, watchers, pairs


@requires_numpy
class TestFoldMailboxBackendIdentity:
    """``fold_mailbox`` leaves the same estimates and supports and
    returns the same dirty set on every backend, from ``array('q')``
    mailboxes and from lists alike; the buffers stay clearable."""

    @given(_shard_mail())
    @settings(max_examples=200, deadline=None)
    @example(([3, 2], [2, 2], [5, 1], [{0, 1}, set()],
              [(0, 4), (0, 2), (0, 6), (1, 0), (0, 2)]))
    @example(([1], [1], [4], [{0}], []))
    def test_generated_mail(self, shard):
        levels, sup0, ext, watchers, pairs = shard
        n_owned = len(levels)
        watch_offsets, watch_targets = array("q", [0]), array("q")
        for owners in watchers:
            watch_targets.extend(sorted(owners))
            watch_offsets.append(len(watch_targets))
        results = []
        for kb in backends():
            for form in (array, list):
                est = kb.full(n_owned + len(ext))
                for i, v in enumerate(levels + ext):
                    est[i] = v
                sup = kb.full(n_owned)
                for u, v in enumerate(sup0):
                    sup[u] = v
                slots = array("q", [s for s, _ in pairs])
                vals = array("q", [v for _, v in pairs])
                if form is list:
                    slots, vals = slots.tolist(), vals.tolist()
                dirty = kb.fold_mailbox(
                    slots, vals, n_owned, est, sup,
                    kb.graph_array(watch_offsets),
                    kb.graph_array(watch_targets), kb.worklist_flags(n_owned),
                )
                # nothing returned pins the mailbox buffers
                del slots[:]
                del vals[:]
                results.append((
                    [int(v) for v in est], [int(v) for v in sup],
                    sorted(int(u) for u in dirty),
                ))
        assert len(results) == 4
        assert all(result == results[0] for result in results)


class TestExportSendCounts:
    def test_with_ids(self):
        stats = SimulationStats()
        export_send_counts(
            stats, array("q", [3, 0, 2]), array("q", [10, 20, 30])
        )
        assert stats.sent_per_process == {10: 3, 30: 2}
        assert stats.total_messages == 5

    def test_without_ids_uses_positions(self):
        stats = SimulationStats()
        export_send_counts(stats, [0, 4, 1])
        assert stats.sent_per_process == {1: 4, 2: 1}
        assert stats.total_messages == 5

    def test_exports_builtin_ints(self):
        if not numpy_available():
            pytest.skip("needs numpy")
        import numpy as np

        stats = SimulationStats()
        export_send_counts(stats, np.array([2, 0, 1], dtype=np.int64))
        assert all(
            type(k) is int and type(v) is int
            for k, v in stats.sent_per_process.items()
        )
        assert type(stats.total_messages) is int


class TestDynamicCSRKernels:
    """The dynamic CSR's per-row contracts.

    ``tests/test_streaming_equivalence.py`` pins the engine-level
    bit-identity and the re-convergence that reads these rows; here the
    row-level contracts are pinned directly: the invariants under
    random edits against a set-of-edges model, the exact entries an
    insert, a delete and a node removal write, the LIFO reuse of freed
    rows, and the invariant check catching each kind of drift.
    """

    def _random_drive(self, steps=200, seed=3):
        from repro.graph.dynamic_csr import DynamicCSRGraph

        rng = random.Random(seed)
        g = DynamicCSRGraph()
        edges: set = set()
        nodes: set = set()
        for _ in range(steps):
            op = rng.random()
            if op < 0.5 or len(edges) < 2:
                u, v = rng.randrange(16), rng.randrange(16)
                key = (min(u, v), max(u, v))
                if u == v or key in edges:
                    continue
                g.insert_edge(*key)
                edges.add(key)
                nodes.update(key)
            elif op < 0.7:
                key = sorted(edges)[rng.randrange(len(edges))]
                g.delete_edge(*key)
                edges.discard(key)
            elif op < 0.8:
                node = rng.randrange(16, 24)
                if node not in nodes:
                    g.add_node(node)
                    nodes.add(node)
            elif nodes:
                victim = sorted(nodes)[rng.randrange(len(nodes))]
                g.remove_node(victim)
                nodes.discard(victim)
                edges = {e for e in edges if victim not in e}
            g.check_invariants()
            assert set(g.edges()) == edges
            assert list(g.nodes()) == sorted(nodes)
        return g, edges

    def test_layout_invariants_under_random_edits(self):
        g, edges = self._random_drive()
        assert g.num_edges == len(edges)
        # freed rows were reused: no more rows than nodes ever held
        assert g.num_rows <= 24
        for node in g.nodes():
            assert g.neighbors(node) == sorted(
                {u for e in edges if node in e for u in e} - {node}
            )

    def test_insert_appends_in_insertion_order(self):
        from repro.graph.dynamic_csr import DynamicCSRGraph

        g = DynamicCSRGraph()
        for v in (3, 1, 2):
            g.insert_edge(0, v)
        # row order is insertion order — the sorted view is derived
        assert list(g.neighbors_rows(g.row_of(0))) == [
            g.row_of(3), g.row_of(1), g.row_of(2)
        ]
        assert g.neighbors(0) == [1, 2, 3]

    def test_delete_removes_one_entry_per_endpoint(self):
        from repro.errors import EdgeError
        from repro.graph.dynamic_csr import DynamicCSRGraph

        g = DynamicCSRGraph()
        for u, v in [(0, 1), (0, 2), (1, 2)]:
            g.insert_edge(u, v)
        row = g.row_of
        g.delete_edge(1, 0)
        assert list(g.rows[row(0)]) == [row(2)]
        assert list(g.rows[row(1)]) == [row(2)]
        assert list(g.rows[row(2)]) == [row(0), row(1)]  # untouched
        assert g.degree(0) == 1 and g.num_edges == 2
        with pytest.raises(EdgeError, match="not present"):
            g.delete_edge(0, 1)
        g.check_invariants()

    def test_remove_node_empties_and_frees_the_row(self):
        from repro.graph.dynamic_csr import DynamicCSRGraph

        g = DynamicCSRGraph()
        for u, v in [(0, 1), (0, 2), (1, 2), (0, 3)]:
            g.insert_edge(u, v)
        g.delete_edge(0, 2)
        rows = [g.row_of(v) for v in range(4)]
        assert list(g.remove_node(0)) == [rows[1], rows[3]]
        # the own row is empty and free, and each former neighbour
        # loses exactly its entry for it
        assert list(g.rows[rows[0]]) == [] and not g.alive[rows[0]]
        assert g._free == [rows[0]]
        for v, left in [(1, [rows[2]]), (2, [rows[1]]), (3, [])]:
            assert list(g.rows[rows[v]]) == left
        assert g.num_edges == 1 and not g.has_node(0)
        g.check_invariants()
        with pytest.raises(NodeNotFoundError):
            g.remove_node(0)

    def test_add_node_reuses_the_last_freed_row(self):
        from repro.graph.dynamic_csr import DynamicCSRGraph

        g = DynamicCSRGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        r1, r2 = g.row_of(1), g.row_of(2)
        g.remove_node(1)
        g.remove_node(2)
        assert g.add_node(7) == r2           # last freed, first reused
        g.insert_edge(8, 0)                  # a new endpoint reuses too
        assert g.row_of(8) == r1
        assert g.add_node(9) == g.num_rows - 1 == 4  # none free: append
        assert g.neighbors(8) == [0] and g.neighbors(7) == []
        g.check_invariants()

    @pytest.mark.parametrize("drift", [
        "asymmetric", "repeat", "self-loop", "dead-not-empty",
        "freed-twice", "edge-count",
    ])
    def test_check_invariants_catches_drift(self, drift):
        from repro.errors import GraphError
        from repro.graph.dynamic_csr import DynamicCSRGraph

        g = DynamicCSRGraph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        dead = g.row_of(3)
        g.remove_node(3)
        g.check_invariants()
        a, b = g.row_of(0), g.row_of(1)
        if drift == "asymmetric":
            g.rows[a].remove(b)
        elif drift == "repeat":
            g.rows[a].append(b)
            g.rows[b].append(a)
            g.num_edges += 1
        elif drift == "self-loop":
            g.rows[a].extend([a, a])
            g.num_edges += 1
        elif drift == "dead-not-empty":
            g.rows[dead].append(a)
            g.rows[a].append(dead)
            g.num_edges += 1
        elif drift == "freed-twice":
            g._free.append(dead)
        else:
            g.num_edges += 1
        with pytest.raises(GraphError):
            g.check_invariants()


# ----------------------------------------------------------------------
# SNAP block parse
# ----------------------------------------------------------------------
_short_ids = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=18),  # leading zeros
    st.integers(0, 10**18 - 1).map(str),
)
_any_ids = st.one_of(
    _short_ids,
    st.text(alphabet="0123456789", min_size=19, max_size=20),
    st.sampled_from([str(INT64_MAX), str(INT64_MAX + 1), "9" * 19, "0" * 19 + "7"]),
)
_blank_runs = st.text(alphabet=" \t", min_size=1, max_size=3)
_edge_blanks = st.text(alphabet=" \t", max_size=2)


@st.composite
def _id_lines(draw, ids, fields: int = 2):
    line = draw(_edge_blanks) + draw(ids)
    for _ in range(fields - 1):
        line += draw(_blank_runs) + draw(ids)
    return line + draw(_edge_blanks)


@st.composite
def _sprinkled(draw):
    """A two-field line with one character the numpy parse must turn
    down inserted anywhere (``int()`` accepts some, e.g. ``+7``)."""
    line = draw(_id_lines(_any_ids))
    at = draw(st.integers(0, len(line)))
    mark = draw(st.sampled_from(["-", "+", "_", "\r", "\x0b", "\x00", "\u0663"]))
    return line[:at] + mark + line[at:]


_block_lines = st.one_of(
    _id_lines(_any_ids),
    _id_lines(_any_ids),
    _sprinkled(),
    st.sampled_from(["", " ", "\t "]),  # blank lines
    _id_lines(_any_ids, fields=1),
    _id_lines(_any_ids, fields=3),
)
#: Only what the numpy byte and length checks pass, in lines of one to
#: three fields, so the line-shape check alone must turn them down.
_shape_lines = st.one_of(
    _id_lines(_short_ids),
    _id_lines(_short_ids, fields=1),
    _id_lines(_short_ids, fields=3),
)


def _block(lines) -> str:
    return "".join(line + "\n" for line in lines)


@requires_numpy
class TestParseEdgeBlockBackendIdentity:
    """The numpy ``parse_edge_block`` returns the stdlib kernel's columns
    or ``None``, and returns them on every block of two-field lines of
    short ids, so the reader's result never depends on the backend."""

    @staticmethod
    def _both(text):
        return (
            resolve_backend("stdlib").parse_edge_block(text),
            resolve_backend("numpy").parse_edge_block(text),
        )

    @staticmethod
    def _assert_columns(got, want) -> None:
        for out, ref in zip(got, want):
            assert type(out) is array and out.typecode == "q"
            assert out.tolist() == ref.tolist()

    @given(st.one_of(st.lists(_block_lines, max_size=30), st.lists(_shape_lines, max_size=8)))
    @settings(max_examples=300, deadline=None)
    @example([f"{INT64_MAX} 1"])
    @example(["5 6", "1 2 3", "4", "7 8"])  # as many runs as two per line
    @example(["-1 2"])
    @example(["1 2", "", "3 4"])
    @example(["1 2 3"])
    @example(["1"])
    @example(["1 2\r"])
    @example(["1_0 2"])
    @example(["\u0663 2"])
    @example(["0000000000000000001 2"])
    def test_numpy_returns_stdlib_columns_or_none(self, lines):
        stdlib, numpy = self._both(_block(lines))
        if numpy is not None:
            assert stdlib is not None
            self._assert_columns(numpy, stdlib)

    @given(st.lists(_id_lines(_short_ids), max_size=30))
    @settings(max_examples=200, deadline=None)
    @example([])
    @example(["999999999999999999 000000000000000000"])
    @example([" \t7\t \t8 \t"])
    def test_short_two_field_lines_parse_on_numpy(self, lines):
        stdlib, numpy = self._both(_block(lines))
        assert numpy is not None and stdlib is not None
        self._assert_columns(numpy, stdlib)
        pairs = [tuple(map(int, line.split())) for line in lines]
        assert list(zip(stdlib[0], stdlib[1])) == pairs


# ----------------------------------------------------------------------
# CSR build from an edge list
# ----------------------------------------------------------------------
_edge_ids = st.one_of(
    st.integers(0, 12),  # dense: duplicates, reverse edges, self-loops
    st.integers(-40, 40),  # negative
    st.integers(0, 10**12),  # sparse
    st.sampled_from([INT64_MIN, INT64_MAX, 1 << 40, -(1 << 40)]),
)


def _endpoints(pairs) -> tuple[array, array]:
    return array("q", [u for u, _ in pairs]), array("q", [v for _, v in pairs])


def _assert_same_buffers(a, b) -> None:
    """Two ``(offsets, targets, ids)`` triples are identical ``array('q')``s."""
    for name, ta, tb in zip(("offsets", "targets", "ids"), a, b):
        assert ta.typecode == tb.typecode == "q", name
        assert ta == tb, name


@requires_numpy
class TestCsrFromEdgesBackendIdentity:
    """The numpy ``csr_from_edges`` kernel builds the stdlib kernel's
    buffers exactly, and both build the CSR of the graph the pairs
    describe."""

    @given(st.lists(st.tuples(_edge_ids, _edge_ids), max_size=60))
    @settings(max_examples=100, deadline=None)
    @example([])
    @example([(5, 5)])
    @example([(INT64_MIN, INT64_MAX), (INT64_MAX, INT64_MIN), (0, 0)])
    # both sides of the test that skips compaction for ids 0..n-1
    @example([(0, 1), (2, 1), (3, 0), (1, 0)])  # exactly 0..n-1
    @example([(0, 1), (1, 3), (3, 4), (4, 0)])  # 0..n-1 with 2 missing
    @example([(1, 2), (2, 3), (3, 1)])  # ids start at 1
    @example([(0, 0), (1, 2), (2, 1)])  # 0 exists only through a self-loop
    def test_generated_edge_lists(self, pairs):
        us, vs = _endpoints(pairs)
        stdlib, numpy = resolve_backend("stdlib"), resolve_backend("numpy")
        assert (stdlib.name, numpy.name) == ("stdlib", "numpy")
        built = stdlib.csr_from_edges(us, vs)
        _assert_same_buffers(built, numpy.csr_from_edges(us, vs))
        ref = CSRGraph.from_graph(Graph.from_edges(pairs))
        _assert_same_buffers(built, (ref.offsets, ref.targets, ref.ids))

    @pytest.mark.parametrize("name", ["stdlib", "numpy"])
    def test_inputs_untouched_outputs_fresh(self, name):
        us = array("q", [3, 1, 3, 9, 9])
        vs = array("q", [1, 3, 7, 9, 1])
        before = (array("q", us), array("q", vs))
        offsets, targets, ids = resolve_backend(name).csr_from_edges(us, vs)
        assert (us, vs) == before
        assert list(ids) == [1, 3, 7, 9]
        assert list(offsets) == [0, 2, 4, 5, 6]
        assert list(targets) == [1, 3, 0, 2, 1, 0]
        for out in (offsets, targets, ids):
            assert type(out) is array and out.typecode == "q"
            assert out is not us and out is not vs


class TestCsrCompanions:
    """``csr_companions`` builds the same fresh ``(owners, mirror)``
    buffers on every backend, and they are the CSR's companions."""

    @given(st.lists(st.tuples(_edge_ids, _edge_ids), max_size=60))
    @settings(max_examples=100, deadline=None)
    @example([])
    @example([(3, 3), (7, 7), (1, 2)])  # isolated nodes
    @example([(0, 0), (1, 2), (2, 3)])  # 0 exists only through a self-loop
    @example([(0, k) for k in range(1, 9)])  # star
    @example([(u, v) for u in range(6) for v in range(6)])  # clique
    @example([(INT64_MIN, INT64_MAX), (INT64_MAX, 0), (0, INT64_MIN)])
    def test_generated_edge_lists(self, pairs):
        offsets, targets, _ = resolve_backend("stdlib").csr_from_edges(*_endpoints(pairs))
        before = (array("q", offsets), array("q", targets))
        built = [kb.csr_companions(offsets, targets) for kb in backends()]
        assert (offsets, targets) == before
        owners, mirror = built[0]
        for other in built:
            for ref, out in zip(built[0], other):
                assert type(out) is array and out.typecode == "q"
                assert out == ref
                assert out is not offsets and out is not targets
        assert len(owners) == len(mirror) == len(targets)
        for e in range(len(targets)):
            assert offsets[owners[e]] <= e < offsets[owners[e] + 1]
            assert targets[mirror[e]] == owners[e]
            assert mirror[mirror[e]] == e


class TestCompanionBuildSelection:
    """``CSRGraph.mirror()`` / ``edge_owners()`` build both companions in
    one kernel call, on numpy only when numpy is importable and the CSR
    has at least ``NUMPY_MIN_PAIRS`` slots."""

    @staticmethod
    def _cycle(slots: int) -> CSRGraph:
        n = slots // 2
        return CSRGraph.from_edges((i, (i + 1) % n) for i in range(n))

    @staticmethod
    def _companions(csr, monkeypatch) -> list[str]:
        resolve = kernels.resolve_backend
        used: list[str] = []

        def spy(name):
            used.append(name)
            return resolve(name)

        monkeypatch.setattr(kernels, "resolve_backend", spy)
        mirror, owners = csr.mirror(), csr.edge_owners()
        assert (mirror, owners) == (csr.mirror(), csr.edge_owners())
        expected = resolve("stdlib").csr_companions(csr.offsets, csr.targets)
        assert (owners, mirror) == expected
        return used

    def test_small_csr_builds_on_stdlib(self, monkeypatch):
        csr = self._cycle(NUMPY_MIN_PAIRS - 2)
        assert len(csr.targets) < NUMPY_MIN_PAIRS
        assert self._companions(csr, monkeypatch) == ["stdlib"]

    @requires_numpy
    def test_large_csr_builds_on_numpy(self, monkeypatch):
        csr = self._cycle(NUMPY_MIN_PAIRS)
        assert len(csr.targets) == NUMPY_MIN_PAIRS
        assert self._companions(csr, monkeypatch) == ["numpy"]

    def test_without_numpy_builds_on_stdlib(self, monkeypatch):
        csr = self._cycle(NUMPY_MIN_PAIRS)
        monkeypatch.setattr(kernels, "numpy_available", lambda: False)
        assert self._companions(csr, monkeypatch) == ["stdlib"]


class TestCsrBuildSelection:
    """``CSRGraph.from_edges`` (and with it ``read_edge_list``) builds on
    numpy only when numpy is importable and the list is long."""

    @staticmethod
    def _pairs(count: int) -> list[tuple[int, int]]:
        rng = random.Random(11)
        ids = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(count // 4)]
        return [(rng.choice(ids), rng.choice(ids)) for _ in range(count)]

    @staticmethod
    def _from_edges(pairs, monkeypatch) -> tuple[CSRGraph, list[str]]:
        resolve = kernels.resolve_backend
        used: list[str] = []

        def spy(name):
            used.append(name)
            return resolve(name)

        monkeypatch.setattr(kernels, "resolve_backend", spy)
        return CSRGraph.from_edges(pairs), used

    def test_short_list_builds_on_stdlib(self, monkeypatch):
        pairs = self._pairs(NUMPY_MIN_PAIRS - 1)
        _, used = self._from_edges(pairs, monkeypatch)
        assert used == ["stdlib"]

    @requires_numpy
    def test_long_list_builds_on_numpy(self, monkeypatch):
        pairs = self._pairs(NUMPY_MIN_PAIRS)
        csr, used = self._from_edges(pairs, monkeypatch)
        assert used == ["numpy"]
        expected = resolve_backend("stdlib").csr_from_edges(*_endpoints(pairs))
        _assert_same_buffers((csr.offsets, csr.targets, csr.ids), expected)

    def test_without_numpy_builds_on_stdlib(self, monkeypatch):
        monkeypatch.setattr(kernels, "numpy_available", lambda: False)
        _, used = self._from_edges(self._pairs(NUMPY_MIN_PAIRS), monkeypatch)
        assert used == ["stdlib"]


@requires_numpy
class TestDistinct:
    """The numpy backend's sort-based ``_distinct`` equals ``np.unique``."""

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [7],
            [4] * 9,
            list(range(-5, 20)),
            list(range(20, -5, -1)),
            random.Random(3).choices(range(-50, 50), k=400),
            [INT64_MAX, INT64_MIN, 0, INT64_MAX, INT64_MIN],
        ],
        ids=["empty", "single", "all-equal", "sorted", "reversed", "random",
             "extremes"],
    )
    def test_matches_np_unique(self, values):
        import numpy as np

        from repro.sim.kernels.numpy_backend import _distinct

        arr = np.array(values, dtype=np.int64)
        got = _distinct(arr)
        want = np.unique(arr)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
        assert arr.tolist() == values  # input untouched
