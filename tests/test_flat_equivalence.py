"""The flat lockstep engine (:class:`repro.sim.flat_engine.FlatOneToOneEngine`).

Its :mod:`tests.replay` cells (graph-seeded families, shuffled and
sparse ids, the send filter off, truncated runs), then its own
contracts: rejections, prebuilt CSR input, ``computeIndex``'s scratch
post-condition and the CSR arrays it reads.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import batagelj_zaversnik, batagelj_zaversnik_csr
from repro.core.one_to_one import OneToOneConfig, run_one_to_one
from repro.errors import ConfigurationError, ConvergenceError, GraphError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph

from tests.replay import (
    SEEDED_FAMILIES, SPARSE_FAMILIES, cells, check, replay, sparse,
)

FLAT = dict(engine="flat", mode="lockstep")


def _run(graph, engine="flat", **kw):
    return run_one_to_one(graph, OneToOneConfig(engine=engine, **kw))


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(SEEDED_FAMILIES))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_bit_identical(self, family, seed):
        check("one-to-one", SEEDED_FAMILIES[family](seed), **FLAT)

    @pytest.mark.parametrize("family", sorted(SEEDED_FAMILIES))
    def test_bit_identical_without_send_filter(self, family):
        check("one-to-one", SEEDED_FAMILIES[family](0), optimize_sends=False,
              **FLAT)

    @pytest.mark.parametrize("family", sorted(SEEDED_FAMILIES))
    def test_bit_identical_shuffled_ids(self, family):
        check("one-to-one", SEEDED_FAMILIES[family](1).shuffled(seed=99),
              **FLAT)

    @pytest.mark.parametrize("family", SPARSE_FAMILIES)
    def test_bit_identical_sparse_ids(self, family):
        check("one-to-one", sparse(SEEDED_FAMILIES[family](2)), **FLAT)


class TestEdgeCases:
    def test_empty_graph(self):
        check("one-to-one", Graph(), **FLAT)

    def test_single_node(self):
        check("one-to-one", gen.empty_graph(1), **FLAT)

    def test_single_edge(self):
        check("one-to-one", Graph.from_edges([(4, 9)]), **FLAT)

    def test_isolated_plus_component(self):
        g = gen.clique_graph(5)
        g.add_node(100)
        g.add_node(50)
        check("one-to-one", g, **FLAT)

    @pytest.mark.parametrize("fixed_rounds", [1, 2, 3, 7])
    def test_truncated_runs_match(self, fixed_rounds):
        check("one-to-one", gen.worst_case_graph(30),
              fixed_rounds=fixed_rounds, **FLAT)

    def test_strict_max_rounds_raises_like_object_engine(self):
        g = gen.worst_case_graph(30)
        for engine in ("flat", "round"):
            with pytest.raises(ConvergenceError):
                _run(g, mode="lockstep", engine=engine, max_rounds=3)

    def test_flat_peersim_mode_now_supported(self):
        """mode='peersim' routes to FlatPeerSimEngine; only unknown
        modes are rejected."""
        result = _run(gen.path_graph(4), mode="peersim", seed=0)
        assert result.algorithm == "one-to-one/peersim-flat"
        with pytest.raises(ConfigurationError):
            _run(gen.path_graph(4), mode="warp")

    def test_flat_rejects_observers(self):
        with pytest.raises(ConfigurationError):
            _run(gen.path_graph(4), mode="lockstep",
                 observers=(lambda r, e: None,))

    def test_accepts_prebuilt_csr(self):
        g = gen.figure1_example()
        result = _run(CSRGraph.from_graph(g), mode="lockstep")
        assert result.coreness == batagelj_zaversnik(g)


class TestHypothesis:
    @given(cells())
    @settings(max_examples=20, deadline=None)
    def test_random_graphs_bit_identical(self, example):
        replay(example, "one-to-one", backend="stdlib", **FLAT)


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

    @pytest.mark.parametrize(
        "algorithm", ["bz", "one-to-one-flat", "one-to-many-flat"]
    )
    def test_an_id_outside_int64_is_named(self, algorithm):
        from repro.core.api import decompose

        graph = gen.path_graph(3)
        graph.add_edge(2, 2**63)
        with pytest.raises(GraphError, match=f"node id {2**63} outside"):
            decompose(graph, algorithm)

    def test_bz_csr_matches_dict_oracle(self):
        g = gen.preferential_attachment_graph(120, 4, seed=8).shuffled(seed=1)
        csr = CSRGraph.from_graph(g)
        core = batagelj_zaversnik_csr(csr)
        by_id = {csr.node_id(i): core[i] for i in range(csr.num_nodes)}
        assert by_id == batagelj_zaversnik(g)
