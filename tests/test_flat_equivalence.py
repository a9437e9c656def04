"""The flat engine is a bit-exact replay of the lockstep object engine.

The contract of :mod:`repro.sim.flat_engine`: for every graph and every
configuration it supports, the flat path produces *identical* coreness,
executed-round count, execution time, per-round send counts, and
per-node message counts to ``RoundEngine(mode="lockstep")`` driving
``KCoreNode`` processes — and the coreness matches the Batagelj–
Zaveršnik oracle. Parametrized across generator families × seeds,
including isolated nodes and non-contiguous ids (via ``Graph.shuffled``
and sparse relabelings), plus hypothesis-generated graphs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import batagelj_zaversnik, batagelj_zaversnik_csr
from repro.core.one_to_one import OneToOneConfig, run_one_to_one
from repro.errors import ConfigurationError, ConvergenceError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph

from tests.conftest import graphs


def _lockstep(graph: Graph, **kw) -> object:
    return run_one_to_one(graph, OneToOneConfig(mode="lockstep", **kw))


def _flat(graph: Graph, **kw) -> object:
    return run_one_to_one(
        graph, OneToOneConfig(mode="lockstep", engine="flat", **kw)
    )


def assert_bit_identical(graph: Graph, exact: bool = True, **kw) -> None:
    obj = _lockstep(graph, **kw)
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
#: nodes, huge-diameter, and the paper's N-1-round adversarial family.
FAMILIES = {
    "empty": lambda seed: gen.empty_graph(11),
    "path": lambda seed: gen.path_graph(17),
    "clique": lambda seed: gen.clique_graph(9),
    "star": lambda seed: gen.star_graph(12),
    "grid": lambda seed: gen.grid_graph(7, 9),
    "worst-case": lambda seed: gen.worst_case_graph(24),
    "figure1": lambda seed: gen.figure1_example(),
    "figure2": lambda seed: gen.figure2_example(),
    "er": lambda seed: gen.erdos_renyi_graph(140, 0.04, seed=seed),
    "er-with-isolated": lambda seed: gen.erdos_renyi_graph(
        150, 0.012, seed=seed
    ),
    "ba": lambda seed: gen.preferential_attachment_graph(160, 3, seed=seed),
    "plc": lambda seed: gen.powerlaw_cluster_graph(130, 3, 0.3, seed=seed),
    "ws": lambda seed: gen.watts_strogatz_graph(120, 4, 0.2, seed=seed),
    "caveman": lambda seed: gen.caveman_graph(7, 6),
}

SEEDS = (0, 1, 2)


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical(self, family, seed):
        assert_bit_identical(FAMILIES[family](seed))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bit_identical_without_send_filter(self, family):
        assert_bit_identical(FAMILIES[family](0), optimize_sends=False)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_bit_identical_shuffled_ids(self, family):
        """Non-contiguous / permuted ids through Graph.shuffled."""
        assert_bit_identical(FAMILIES[family](1).shuffled(seed=99))

    @pytest.mark.parametrize("family", ["er", "ba", "worst-case", "grid"])
    def test_bit_identical_sparse_ids(self, family):
        """Ids spread out with gaps (13u + 5), exercising compaction."""
        g = FAMILIES[family](2)
        sparse = Graph.from_adjacency(
            {13 * u + 5: [13 * v + 5 for v in g.neighbors(u)] for u in g}
        )
        assert_bit_identical(sparse)


class TestEdgeCases:
    def test_empty_graph(self):
        assert_bit_identical(Graph())

    def test_single_node(self):
        assert_bit_identical(gen.empty_graph(1))

    def test_single_edge(self):
        assert_bit_identical(Graph.from_edges([(4, 9)]))

    def test_isolated_plus_component(self):
        g = gen.clique_graph(5)
        g.add_node(100)
        g.add_node(50)
        assert_bit_identical(g)

    @pytest.mark.parametrize("fixed_rounds", [1, 2, 3, 7])
    def test_truncated_runs_match(self, fixed_rounds):
        """fixed_rounds (approximate) runs replay identically too."""
        g = gen.worst_case_graph(30)
        assert_bit_identical(g, exact=False, fixed_rounds=fixed_rounds)

    def test_strict_max_rounds_raises_like_object_engine(self):
        g = gen.worst_case_graph(30)
        with pytest.raises(ConvergenceError):
            _flat(g, max_rounds=3)
        with pytest.raises(ConvergenceError):
            _lockstep(g, max_rounds=3)

    def test_flat_peersim_mode_now_supported(self):
        """mode='peersim' routes to FlatPeerSimEngine (see
        test_flat_peersim_equivalence.py for its contract); only
        unknown modes are rejected."""
        result = run_one_to_one(
            gen.path_graph(4),
            OneToOneConfig(mode="peersim", engine="flat", seed=0),
        )
        assert result.algorithm == "one-to-one/peersim-flat"
        with pytest.raises(ConfigurationError):
            run_one_to_one(
                gen.path_graph(4),
                OneToOneConfig(mode="warp", engine="flat"),
            )

    def test_flat_rejects_observers(self):
        with pytest.raises(ConfigurationError):
            run_one_to_one(
                gen.path_graph(4),
                OneToOneConfig(
                    mode="lockstep",
                    engine="flat",
                    observers=(lambda r, e: None,),
                ),
            )

    def test_accepts_prebuilt_csr(self):
        g = gen.figure1_example()
        csr = CSRGraph.from_graph(g)
        result = run_one_to_one(
            csr, OneToOneConfig(mode="lockstep", engine="flat")
        )
        assert result.coreness == batagelj_zaversnik(g)


class TestHypothesis:
    @given(graphs(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_bit_identical(self, g: Graph, salt: int):
        assert_bit_identical(g.shuffled(seed=salt) if salt else g)


class TestComputeIndexScratchContract:
    """The flat engine reads the support from the scratch buffer after
    each call; that post-condition is part of compute_index's contract."""

    @given(
        st.lists(st.integers(0, 40), min_size=0, max_size=40),
        st.integers(1, 30),
    )
    @settings(max_examples=100, deadline=None)
    def test_scratch_holds_suffix_counts(self, estimates, k):
        from repro.core.compute_index import compute_index

        scratch: list[int] = [7] * 3  # stale garbage must be overwritten
        t = compute_index(estimates, k, scratch)
        clamped = [min(e, k) for e in estimates]
        for i in range(1, k + 1):
            assert scratch[i] == sum(1 for e in clamped if e >= i)
        assert scratch[t] == sum(1 for e in clamped if e >= t)


class TestCSRGraph:
    def test_round_trip(self):
        g = gen.erdos_renyi_graph(80, 0.07, seed=5).shuffled(seed=3)
        csr = CSRGraph.from_graph(g)
        assert csr.to_graph() == g
        assert csr.num_nodes == g.num_nodes
        assert csr.num_edges == g.num_edges

    def test_from_edges_matches_graph_semantics(self):
        edges = [(0, 1), (1, 0), (2, 2), (3, 4), (1, 2)]
        csr = CSRGraph.from_edges(edges, num_nodes=7)
        assert csr.to_graph() == Graph.from_edges(edges, num_nodes=7)

    def test_neighbors_sorted_and_sliced(self):
        csr = CSRGraph.from_edges([(5, 1), (5, 3), (5, 2), (1, 3)])
        i = csr.index(5)
        lo, hi = csr.neighbors_slice(i)
        assert hi - lo == csr.degree(i) == 3
        nbrs = list(csr.targets[lo:hi])
        assert nbrs == sorted(nbrs)
        assert [csr.node_id(j) for j in nbrs] == [1, 2, 3]

    def test_mirror_is_involution(self):
        # the larger graph has more than NUMPY_MIN_PAIRS slots, so its
        # companions build on numpy wherever numpy is importable
        for n in (60, 11_000):
            csr = CSRGraph.from_graph(gen.powerlaw_cluster_graph(n, 3, 0.2, seed=2))
            mirror = csr.mirror()
            owner = csr.edge_owners()
            for e in range(len(csr.targets)):
                assert mirror[mirror[e]] == e
                assert csr.targets[mirror[e]] == owner[e]
                assert owner[mirror[e]] == csr.targets[e]

    def test_bz_csr_matches_dict_oracle(self):
        g = gen.preferential_attachment_graph(120, 4, seed=8).shuffled(seed=1)
        csr = CSRGraph.from_graph(g)
        core = batagelj_zaversnik_csr(csr)
        by_id = {csr.node_id(i): core[i] for i in range(csr.num_nodes)}
        assert by_id == batagelj_zaversnik(g)
