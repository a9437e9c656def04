"""Tests for the sharded CSR partition layer (graph/sharded.py).

The contract: given a ``CSRGraph`` and an ``Assignment``, every host
gets a sub-CSR in a local index space (owned nodes first, then the
external boundary), boundary tables that mirror the object engine's
``KCoreHost`` structures exactly (the watcher table its
``external_watchers``, the delivery table its ``border``, each entry
pointing at the destination's ext slot for the node), and precomputed
host-to-host edge cuts that agree with ``Assignment.cut_edges``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import Assignment, assign
from repro.core.one_to_many import build_host_processes
from repro.errors import ConfigurationError
from repro.graph import csr as csr_module
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.sharded import ShardedCSR
from repro.sim import kernels
from repro.sim.kernels import numpy_available

from tests.conftest import graphs

#: Every HostShard table the shard_tables kernel builds.
TABLES = (
    "owned_global", "offsets", "targets", "ext_global", "ext_host",
    "watch_offsets", "watch_targets", "deliver_offsets", "deliver_hosts",
    "deliver_slots",
)


def _shard_owned_ids(sharded: ShardedCSR, host: int) -> list[int]:
    """Original ids of the nodes owned by ``host``."""
    ids = sharded.csr.ids
    return [ids[g] for g in sharded.shards[host].owned_global]


def _deliveries(shard) -> dict[int, dict[int, int]]:
    """The delivery table per destination host y: {owned local node u
    -> the slot deliver_slots gives u's estimate on y}."""
    table: dict[int, dict[int, int]] = {}
    offsets = shard.deliver_offsets
    for u in range(shard.n_owned):
        for e in range(offsets[u], offsets[u + 1]):
            y = shard.deliver_hosts[e]
            table.setdefault(y, {})[u] = shard.deliver_slots[e]
    return table


class TestStructure:
    def test_path_over_two_hosts(self):
        # path 0-1-2-3 via modulo: host0={0,2}, host1={1,3}
        g = gen.path_graph(4)
        sharded = ShardedCSR.from_graph(g, assign(g, 2, policy="modulo"))
        s0, s1 = sharded.shards
        assert _shard_owned_ids(sharded, 0) == [0, 2]
        assert _shard_owned_ids(sharded, 1) == [1, 3]
        assert s0.neighbor_hosts == (1,)
        assert s1.neighbor_hosts == (0,)
        # all of host0's nodes border host1 (edges 0-1, 2-1, 2-3), and
        # node 0 (local 0) lands in host1's ext slot 0, node 2 in slot 1
        assert _deliveries(s0) == {1: {0: 0, 1: 1}}
        # every edge is cut
        assert sharded.cut_edges == 3
        assert sharded.cut_matrix() == {(0, 1): 3}

    def test_local_index_space_roundtrip(self):
        """targets < n_owned are owned-local; the rest map through
        ext_global back to the full graph's adjacency."""
        g = gen.powerlaw_cluster_graph(80, 3, 0.3, seed=13)
        csr = CSRGraph.from_graph(g)
        sharded = ShardedCSR(csr, assign(g, 5, policy="bfs", seed=2))
        ids = csr.ids
        for shard in sharded.shards:
            for u in range(shard.n_owned):
                original = ids[shard.owned_global[u]]
                nbrs = set()
                for e in range(shard.offsets[u], shard.offsets[u + 1]):
                    t = shard.targets[e]
                    if t < shard.n_owned:
                        nbrs.add(ids[shard.owned_global[t]])
                    else:
                        nbrs.add(ids[shard.ext_global[t - shard.n_owned]])
                assert nbrs == g.neighbors(original)

    def test_degrees_preserved(self):
        g = gen.erdos_renyi_graph(60, 0.1, seed=3)
        sharded = ShardedCSR.from_graph(g, assign(g, 4))
        ids = sharded.csr.ids
        for shard in sharded.shards:
            for u in range(shard.n_owned):
                assert shard.degree(u) == g.degree(ids[shard.owned_global[u]])

    def test_single_host_has_no_boundary(self):
        g = gen.clique_graph(6)
        sharded = ShardedCSR.from_graph(g, assign(g, 1))
        (shard,) = sharded.shards
        assert shard.n_ext == 0
        assert shard.neighbor_hosts == ()
        assert _deliveries(shard) == {}
        assert sharded.cut_edges == 0

    def test_empty_hosts_get_empty_shards(self):
        g = gen.cycle_graph(5)
        sharded = ShardedCSR.from_graph(g, assign(g, 20, policy="block"))
        assert len(sharded.shards) == 20
        for shard in sharded.shards[5:]:
            assert shard.n_owned == 0
            assert shard.n_ext == 0
            assert shard.neighbor_hosts == ()

    def test_empty_graph(self):
        g = Graph()
        sharded = ShardedCSR.from_graph(g, Assignment(host_of={}, num_hosts=3))
        assert len(sharded.shards) == 3
        assert sharded.cut_edges == 0


class TestDeliveryTable:
    def test_segments_list_every_other_watching_host_once(self):
        g = gen.powerlaw_cluster_graph(90, 3, 0.25, seed=8)
        sharded = ShardedCSR.from_graph(g, assign(g, 6, policy="random", seed=9))
        for shard in sharded.shards:
            offsets = shard.deliver_offsets
            assert len(offsets) == shard.n_owned + 1
            assert offsets[-1] == len(shard.deliver_hosts) == len(
                shard.deliver_slots
            )
            for u in range(shard.n_owned):
                hosts = list(shard.deliver_hosts[offsets[u]:offsets[u + 1]])
                assert hosts == sorted(set(hosts))
                assert shard.host not in hosts
                # exactly the hosts owning a neighbour of u
                watching = {
                    shard.ext_host[t - shard.n_owned]
                    for t in shard.targets[shard.offsets[u]:shard.offsets[u + 1]]
                    if t >= shard.n_owned
                }
                assert set(hosts) == watching


class TestBoundaryTables:
    """The shard tables mirror KCoreHost's dict structures exactly."""

    @pytest.fixture()
    def pair(self):
        g = gen.powerlaw_cluster_graph(90, 3, 0.25, seed=8).shuffled(seed=4)
        assignment = assign(g, 6, policy="random", seed=9)
        hosts = build_host_processes(g, assignment)
        sharded = ShardedCSR.from_graph(g, assignment)
        return g, hosts, sharded

    def test_neighbor_hosts_match(self, pair):
        _, hosts, sharded = pair
        for x, host in hosts.items():
            assert sharded.shards[x].neighbor_hosts == host.neighbor_hosts

    def test_border_matches(self, pair):
        _, hosts, sharded = pair
        ids = sharded.csr.ids
        for x, host in hosts.items():
            shard = sharded.shards[x]
            deliveries = _deliveries(shard)
            assert sorted(deliveries) == list(host.neighbor_hosts)
            for y, dest in deliveries.items():
                local_border = {ids[shard.owned_global[u]] for u in dest}
                assert local_border == set(host.border[y])

    def test_watchers_match(self, pair):
        _, hosts, sharded = pair
        ids = sharded.csr.ids
        for x, host in hosts.items():
            shard = sharded.shards[x]
            flat_watchers = {}
            for s in range(shard.n_ext):
                us = shard.watch_targets[
                    shard.watch_offsets[s]:shard.watch_offsets[s + 1]
                ]
                flat_watchers[ids[shard.ext_global[s]]] = sorted(
                    ids[shard.owned_global[u]] for u in us
                )
            object_watchers = {
                v: sorted(us) for v, us in host.external_watchers.items()
            }
            assert flat_watchers == object_watchers

    def test_dest_slots_point_into_destination_ext_space(self, pair):
        _, _, sharded = pair
        ids = sharded.csr.ids
        for shard in sharded.shards:
            for y, dest in _deliveries(shard).items():
                target = sharded.shards[y]
                for u, slot in dest.items():
                    assert (
                        target.ext_global[slot] == shard.owned_global[u]
                    ), (ids[shard.owned_global[u]], y)

    def test_ext_global_has_no_repeats(self, pair):
        _, _, sharded = pair
        for shard in sharded.shards:
            assert len(set(shard.ext_global)) == shard.n_ext


class TestCuts:
    @given(graphs(), st.integers(1, 9), st.sampled_from(
        ["modulo", "block", "random", "bfs"]))
    @settings(max_examples=40, deadline=None)
    def test_cut_edges_matches_assignment(self, g, hosts, policy):
        assignment = assign(g, hosts, policy=policy, seed=5)
        sharded = ShardedCSR.from_graph(g, assignment)
        assert sharded.cut_edges == assignment.cut_edges(g)

    def test_cut_matrix_sums_to_cut_edges(self):
        g = gen.powerlaw_cluster_graph(120, 3, 0.3, seed=42)
        sharded = ShardedCSR.from_graph(g, assign(g, 7, policy="modulo"))
        assert sum(sharded.cut_matrix().values()) == sharded.cut_edges

    def test_load_imbalance_matches_assignment(self):
        g = gen.path_graph(10)
        assignment = assign(g, 4, policy="block")
        sharded = ShardedCSR.from_graph(g, assignment)
        assert sharded.load_imbalance() == pytest.approx(
            assignment.load_imbalance()
        )


class TestValidation:
    def test_assignment_missing_node_rejected(self):
        g = gen.path_graph(4)
        partial = Assignment(host_of={0: 0, 1: 1}, num_hosts=2)
        with pytest.raises(ConfigurationError):
            ShardedCSR.from_graph(g, partial)

    def test_assignment_extra_node_rejected(self):
        g = gen.path_graph(3)
        extra = Assignment(
            host_of={0: 0, 1: 1, 2: 0, 99: 1}, num_hosts=2
        )
        with pytest.raises(ConfigurationError):
            ShardedCSR.from_graph(g, extra)

    def test_assignment_wrong_node_rejected(self):
        """Right cardinality, wrong node set — caught per node."""
        g = gen.path_graph(3)
        swapped = Assignment(host_of={0: 0, 1: 1, 99: 0}, num_hosts=2)
        with pytest.raises(ConfigurationError, match="node 2"):
            ShardedCSR.from_graph(g, swapped)


def _build(graph, assignment, numpy: bool, monkeypatch) -> ShardedCSR:
    """``ShardedCSR`` on the numpy or the stdlib ``shard_tables`` kernel
    (checked, so a comparison can never pit a backend against itself).
    The numpy build lowers ``NUMPY_MIN_PAIRS`` so that small graphs
    reach it too."""
    resolve = kernels.resolve_backend
    used: list[str] = []

    def spy(name):
        used.append(name)
        return resolve(name)

    csr = CSRGraph.from_graph(graph)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "resolve_backend", spy)
        if numpy:
            patch.setattr(csr_module, "NUMPY_MIN_PAIRS", 0)
        else:
            patch.setattr(kernels, "numpy_available", lambda: False)
        sharded = ShardedCSR(csr, assignment)
    assert used == ["numpy" if numpy else "stdlib"]
    return sharded


def assert_same_partition(a: ShardedCSR, b: ShardedCSR) -> None:
    """Every table, cut count and host list is identical, as a value and
    as an ``array('q')``."""
    assert a.cut_edges == b.cut_edges
    assert a.host_of_index == b.host_of_index
    assert len(a.shards) == len(b.shards)
    for x, (sa, sb) in enumerate(zip(a.shards, b.shards)):
        for name in TABLES:
            ta, tb = getattr(sa, name), getattr(sb, name)
            assert ta.typecode == tb.typecode == "q", (x, name)
            assert ta == tb, (x, name)
        assert (sa.n_owned, sa.n_ext) == (sb.n_owned, sb.n_ext), x
        # cut_to's key order too: cut_matrix and the pickles iterate it
        assert list(sa.cut_to.items()) == list(sb.cut_to.items()), x
        assert sa.neighbor_hosts == sb.neighbor_hosts, x


@pytest.mark.skipif(not numpy_available(), reason="needs numpy")
class TestShardTablesBackendIdentity:
    """The numpy ``shard_tables`` kernel builds the stdlib kernel's
    tables exactly — so which one ``ShardedCSR`` ran is invisible."""

    @pytest.mark.parametrize("hosts", [1, 2, 7, "n+3"])
    @pytest.mark.parametrize(
        "policy", ["modulo", "block", "random", "bfs", "refined"]
    )
    @pytest.mark.parametrize(
        "family",
        ["path6", "figure2", "figure1", "worst12", "small_social",
         "medium_social"],
    )
    def test_conftest_graphs(self, request, monkeypatch, family, policy, hosts):
        g = request.getfixturevalue(family)
        num_hosts = g.num_nodes + 3 if hosts == "n+3" else hosts
        assignment = assign(g, num_hosts, policy=policy, seed=3)
        assert_same_partition(
            _build(g, assignment, False, monkeypatch),
            _build(g, assignment, True, monkeypatch),
        )

    def test_empty_graph(self, monkeypatch):
        empty = Assignment(host_of={}, num_hosts=3)
        a = _build(Graph(), empty, False, monkeypatch)
        b = _build(Graph(), empty, True, monkeypatch)
        assert_same_partition(a, b)
        assert [s.n_owned for s in b.shards] == [0, 0, 0]

    def test_isolated_nodes(self, monkeypatch):
        g = Graph.from_edges([(0, 1), (1, 2), (5, 6)], num_nodes=9)
        for policy in ("modulo", "block", "bfs"):
            assignment = assign(g, 4, policy=policy, seed=1)
            assert_same_partition(
                _build(g, assignment, False, monkeypatch),
                _build(g, assignment, True, monkeypatch),
            )

    @given(graphs(), st.integers(1, 9), st.sampled_from(
        ["modulo", "block", "random", "bfs", "refined"]))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_graphs(self, g, hosts, policy):
        assignment = assign(g, hosts, policy=policy, seed=5)
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_same_partition(
                _build(g, assignment, False, monkeypatch),
                _build(g, assignment, True, monkeypatch),
            )

    def test_cut_counts_are_builtin_ints(self):
        g = gen.erdos_renyi_graph(40, 0.1, seed=2)
        sharded = ShardedCSR.from_graph(g, assign(g, 3))
        assert type(sharded.cut_edges) is int
        for shard in sharded.shards:
            for y, count in shard.cut_to.items():
                assert type(y) is int and type(count) is int

    def test_numpy_cut_counts_are_builtin_ints(self, monkeypatch):
        # a 40-node graph builds on the stdlib unless the threshold drops
        g = gen.erdos_renyi_graph(40, 0.1, seed=2)
        sharded = _build(g, assign(g, 3), True, monkeypatch)
        assert type(sharded.cut_edges) is int
        for shard in sharded.shards:
            for y, count in shard.cut_to.items():
                assert type(y) is int and type(count) is int


class TestBuildSelection:
    """``ShardedCSR`` follows the CSR build's size rule: numpy only when
    it is importable and the CSR has at least ``NUMPY_MIN_PAIRS``
    slots."""

    def test_small_run_imports_no_numpy(self):
        code = (
            "import sys\n"
            "from repro import decompose\n"
            "from repro.graph.generators import erdos_renyi_graph\n"
            "g = erdos_renyi_graph(200, 0.05, seed=1)\n"
            "decompose(g, 'one-to-many-flat', num_hosts=4)\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
