"""The peersim flat engine is an RNG-identical replay of the object engine.

The contract of :class:`repro.sim.flat_engine.FlatPeerSimEngine`: for
every graph and every seed, the flat path consumes the *identical* RNG
stream as ``RoundEngine(mode="peersim")`` driving ``KCoreNode``
processes (one shuffle of the same pid list per executed round, messages
delivered immediately within the round) — so coreness, executed-round
count, execution time, per-round send counts, per-node message counts,
and the converged flag all match bit-for-bit, per seed. This is what
makes the Section-5 experiments (Table 1's t_avg/t_min/t_max over
repeated randomized runs) reproducible on the fast path: each seed's run
is *the same run*, just executed over flat arrays.

Parametrized across generator families × engine seeds (the acceptance
floor is 5 seeds × 3 families; this suite runs well past it), including
isolated nodes and non-contiguous ids — the shuffle permutes positions
of the process list, so id compaction must preserve the object engine's
``graph.nodes()`` base order for the replay to stay aligned — plus
hypothesis-generated graphs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import batagelj_zaversnik
from repro.core.one_to_one import OneToOneConfig, run_one_to_one
from repro.errors import ConfigurationError, ConvergenceError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.sim.engine import RoundEngine
from repro.sim.flat_engine import FlatPeerSimEngine

from tests.conftest import graphs


def _object(graph: Graph, **kw) -> object:
    return run_one_to_one(graph, OneToOneConfig(mode="peersim", **kw))


def _flat(graph: Graph, **kw) -> object:
    return run_one_to_one(
        graph, OneToOneConfig(mode="peersim", engine="flat", **kw)
    )


def assert_rng_identical(graph: Graph, exact: bool = True, **kw) -> None:
    obj = _object(graph, **kw)
    flat = _flat(graph, **kw)
    assert flat.coreness == obj.coreness
    if exact:
        oracle = batagelj_zaversnik(graph)
        assert flat.coreness == oracle
    so, sf = obj.stats, flat.stats
    assert sf.rounds_executed == so.rounds_executed
    assert sf.execution_time == so.execution_time
    assert sf.sends_per_round == so.sends_per_round
    assert sf.total_messages == so.total_messages
    assert sf.sent_per_process == so.sent_per_process
    assert sf.converged == so.converged


#: name -> builder; spans sparse/dense, regular/heavy-tailed, isolated
#: nodes, huge-diameter, and the paper's adversarial family. The graph
#: seed is fixed per family — the varied dimension here is the *engine*
#: seed, which drives the randomized activation order under test.
FAMILIES = {
    "empty": lambda: gen.empty_graph(9),
    "path": lambda: gen.path_graph(17),
    "clique": lambda: gen.clique_graph(9),
    "star": lambda: gen.star_graph(12),
    "grid": lambda: gen.grid_graph(6, 8),
    "worst-case": lambda: gen.worst_case_graph(24),
    "figure2": lambda: gen.figure2_example(),
    "er": lambda: gen.erdos_renyi_graph(120, 0.045, seed=7),
    "er-with-isolated": lambda: gen.erdos_renyi_graph(130, 0.012, seed=5),
    "ba": lambda: gen.preferential_attachment_graph(140, 3, seed=6),
    "plc": lambda: gen.powerlaw_cluster_graph(110, 3, 0.3, seed=4),
    "caveman": lambda: gen.caveman_graph(6, 6),
}

#: Engine seeds — each drives a different random activation order; the
#: replay must track the object engine through every one of them.
SEEDS = (0, 1, 2, 3, 4)


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rng_identical(self, family, seed):
        assert_rng_identical(FAMILIES[family](), seed=seed)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rng_identical_without_send_filter(self, family):
        assert_rng_identical(FAMILIES[family](), seed=3, optimize_sends=False)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rng_identical_shuffled_ids(self, family):
        """Non-contiguous / permuted ids: graph.nodes() no longer
        iterates ascending, so the replay must shuffle the object
        engine's insertion-order pid list, not the sorted one."""
        assert_rng_identical(FAMILIES[family]().shuffled(seed=99), seed=11)

    @pytest.mark.parametrize("family", ["er", "ba", "worst-case", "grid"])
    def test_rng_identical_sparse_ids(self, family):
        """Ids spread out with gaps (13u + 5), exercising compaction."""
        g = FAMILIES[family]()
        sparse = Graph.from_adjacency(
            {13 * u + 5: [13 * v + 5 for v in g.neighbors(u)] for u in g}
        )
        assert_rng_identical(sparse, seed=2)


class TestEdgeCases:
    def test_empty_graph(self):
        assert_rng_identical(Graph(), seed=0)

    def test_single_node(self):
        assert_rng_identical(gen.empty_graph(1), seed=0)

    def test_single_edge(self):
        assert_rng_identical(Graph.from_edges([(4, 9)]), seed=1)

    def test_isolated_plus_component(self):
        g = gen.clique_graph(5)
        g.add_node(100)
        g.add_node(50)
        assert_rng_identical(g, seed=5)

    @pytest.mark.parametrize("fixed_rounds", [1, 2, 3, 7])
    @pytest.mark.parametrize("seed", (0, 3))
    def test_truncated_runs_match(self, fixed_rounds, seed):
        """fixed_rounds (approximate) runs replay identically too."""
        g = gen.worst_case_graph(30)
        assert_rng_identical(
            g, exact=False, seed=seed, fixed_rounds=fixed_rounds
        )

    def test_strict_max_rounds_raises_like_object_engine(self):
        g = gen.worst_case_graph(30)
        with pytest.raises(ConvergenceError):
            _flat(g, seed=0, max_rounds=3)
        with pytest.raises(ConvergenceError):
            _object(g, seed=0, max_rounds=3)

    def test_flat_rejects_observers(self):
        with pytest.raises(ConfigurationError):
            run_one_to_one(
                gen.path_graph(4),
                OneToOneConfig(
                    mode="peersim",
                    engine="flat",
                    observers=(lambda r, e: None,),
                ),
            )

    def test_accepts_prebuilt_csr(self):
        """A prebuilt CSR defaults to ascending activation ids — the
        object engine's order for any ascending-iterating graph."""
        g = gen.figure1_example()
        csr = CSRGraph.from_graph(g)
        config = OneToOneConfig(mode="peersim", engine="flat", seed=9)
        flat = run_one_to_one(csr, config)
        obj = _object(g, seed=9)
        assert flat.coreness == obj.coreness
        assert flat.stats.sends_per_round == obj.stats.sends_per_round

    def test_shared_rng_instance_interleaves_identically(self):
        """Passing Random instances primed to the same state must yield
        the same run — the engines draw from the stream identically."""
        import random

        g = gen.erdos_renyi_graph(60, 0.08, seed=3)
        obj = _object(g, seed=random.Random(42))
        flat = _flat(g, seed=random.Random(42))
        assert flat.coreness == obj.coreness
        assert flat.stats.sends_per_round == obj.stats.sends_per_round

    def test_seed_changes_the_run(self):
        """Sanity: different seeds produce different activation orders,
        visible in the per-round send profile on an asymmetric graph
        (this is the spread Table 1 reports over repetitions)."""
        g = gen.preferential_attachment_graph(140, 3, seed=6)
        profiles = {
            tuple(_flat(g, seed=s).stats.sends_per_round) for s in range(8)
        }
        assert len(profiles) > 1


class TestEngineDirect:
    def test_activation_ids_must_cover_all_nodes(self):
        from repro.errors import SimulationError

        csr = CSRGraph.from_graph(gen.path_graph(5))
        with pytest.raises(SimulationError):
            FlatPeerSimEngine(csr, activation_ids=[0, 1])

    def test_activation_ids_rejects_duplicates(self):
        """Right length but a repeated pid would leave a node forever
        unactivated (its mailbox never drains) — reject up front."""
        from repro.errors import SimulationError

        csr = CSRGraph.from_graph(gen.path_graph(3))
        with pytest.raises(SimulationError):
            FlatPeerSimEngine(csr, activation_ids=[0, 1, 1])

    def test_matches_raw_round_engine(self):
        """Directly against RoundEngine (not just run_one_to_one), with
        the process dict built in graph order."""
        from repro.core.one_to_one import build_node_processes

        g = gen.powerlaw_cluster_graph(90, 3, 0.25, seed=8).shuffled(seed=2)
        processes = build_node_processes(g)
        engine = RoundEngine(processes, mode="peersim", seed=17)
        stats = engine.run()
        coreness = {pid: p.core for pid, p in processes.items()}

        csr = CSRGraph.from_graph(g)
        flat = FlatPeerSimEngine(
            csr, seed=17, activation_ids=list(g.nodes())
        )
        flat_stats = flat.run()
        assert flat.coreness() == coreness
        assert flat_stats.sends_per_round == stats.sends_per_round
        assert flat_stats.sent_per_process == stats.sent_per_process
        assert flat_stats.rounds_executed == stats.rounds_executed
        assert flat_stats.execution_time == stats.execution_time


class TestHypothesis:
    @given(graphs(), st.integers(0, 5), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_rng_identical(self, g: Graph, seed: int, salt: int):
        assert_rng_identical(
            g.shuffled(seed=salt) if salt else g, seed=seed
        )
