"""Shard pickling round-trips — the contract the mp engine stands on.

The multi-process engine ships one :class:`~repro.graph.sharded.
HostShard` to each worker process; the coordinator (and any future
checkpoint/restore path) pickles whole :class:`~repro.graph.sharded.
ShardedCSR` / :class:`~repro.graph.csr.CSRGraph` structures. These
tests pin the wire contract: every precomputed table survives a
``pickle`` round-trip bit-for-bit, ``CSRGraph``'s lazy caches are
*dropped* on the wire and rebuild on demand in the receiving process,
and an unpickled partition drives the flat engine to the identical run.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.assignment import assign
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.sharded import ShardedCSR
from repro.sim.flat_many_engine import FlatOneToManyEngine

POLICIES = ("modulo", "block", "random", "bfs")


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def assert_shard_equal(a, b) -> None:
    """Every wire field of two shards is equal (arrays compare by value)."""
    assert b.host == a.host
    assert b.n_owned == a.n_owned
    assert b.n_ext == a.n_ext
    assert b.owned_global == a.owned_global
    assert b.ext_global == a.ext_global
    assert b.ext_host == a.ext_host
    assert b.offsets == a.offsets
    assert b.targets == a.targets
    assert b.watch_offsets == a.watch_offsets
    assert b.watch_targets == a.watch_targets
    assert b.neighbor_hosts == a.neighbor_hosts
    assert b.deliver_offsets == a.deliver_offsets
    assert b.deliver_hosts == a.deliver_hosts
    assert b.deliver_slots == a.deliver_slots
    assert b.cut_to == a.cut_to


class TestHostShard:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_roundtrip_all_policies(self, policy):
        g = gen.erdos_renyi_graph(90, 0.06, seed=3)
        sharded = ShardedCSR.from_graph(g, assign(g, 4, policy=policy, seed=1))
        for shard in sharded.shards:
            assert_shard_equal(shard, _roundtrip(shard))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_empty_host_shards(self, policy):
        """num_hosts > num_nodes leaves empty shards — they must still
        travel (the mp engine spawns a worker for every host)."""
        g = gen.cycle_graph(5)
        sharded = ShardedCSR.from_graph(
            g, assign(g, 9, policy=policy, seed=2)
        )
        empties = [s for s in sharded.shards if s.n_owned == 0]
        assert empties  # 9 hosts, 5 nodes
        for shard in sharded.shards:
            assert_shard_equal(shard, _roundtrip(shard))

    def test_sparse_id_graph(self):
        g = gen.erdos_renyi_graph(60, 0.08, seed=5)
        sparse = Graph.from_adjacency(
            {13 * u + 5: [13 * v + 5 for v in g.neighbors(u)] for u in g}
        )
        sharded = ShardedCSR.from_graph(sparse, assign(sparse, 4))
        for shard in sharded.shards:
            assert_shard_equal(shard, _roundtrip(shard))


class TestShardedCSR:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_roundtrip_drives_identical_run(self, policy):
        """An unpickled partition is operationally indistinguishable:
        same cut statistics, same engine run."""
        g = gen.preferential_attachment_graph(80, 3, seed=2)
        sharded = ShardedCSR.from_graph(g, assign(g, 4, policy=policy, seed=0))
        copy = _roundtrip(sharded)
        assert copy.num_hosts == sharded.num_hosts
        assert copy.cut_edges == sharded.cut_edges
        assert copy.host_of_index == sharded.host_of_index
        assert copy.cut_matrix() == sharded.cut_matrix()
        original = FlatOneToManyEngine(
            sharded, communication="p2p", mode="lockstep"
        )
        original.run()
        replayed = FlatOneToManyEngine(
            copy, communication="p2p", mode="lockstep"
        )
        replayed.run()
        assert replayed.coreness() == original.coreness()
        assert list(replayed.estimates_sent) == list(original.estimates_sent)
        assert (
            replayed.stats.sends_per_round == original.stats.sends_per_round
        )

    def test_assignment_survives(self):
        g = gen.grid_graph(5, 5)
        sharded = ShardedCSR.from_graph(g, assign(g, 3, policy="bfs"))
        copy = _roundtrip(sharded)
        assert copy.assignment.host_of == sharded.assignment.host_of
        assert copy.assignment.policy == "bfs"
        assert copy.assignment.owned == sharded.assignment.owned


class TestCSRGraph:
    def test_roundtrip_and_cache_drop(self):
        # the larger graph has more than NUMPY_MIN_PAIRS slots, so its
        # companions build on numpy wherever numpy is importable
        for g in (
            gen.erdos_renyi_graph(70, 0.07, seed=1),
            gen.preferential_attachment_graph(11_000, 3, seed=1),
        ):
            csr = CSRGraph.from_graph(g)
            expected_mirror = csr.mirror()
            expected_owners = csr.edge_owners()
            copy = _roundtrip(csr)
            assert copy.offsets == csr.offsets
            assert copy.targets == csr.targets
            assert copy.ids == csr.ids
            assert copy.name == csr.name
            assert copy._mirror is None and copy._edge_owners is None
            assert copy.mirror() == expected_mirror
            assert copy.edge_owners() == expected_owners

    def test_sparse_ids_index_rebuilds(self):
        csr = CSRGraph.from_edges([(5, 18), (18, 31), (31, 5)])
        copy = _roundtrip(csr)
        assert copy._index_of is None
        assert copy.index(18) == csr.index(18)
        assert copy.to_graph().num_edges == 3
