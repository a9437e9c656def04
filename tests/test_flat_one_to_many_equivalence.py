"""The flat one-to-many engine (:class:`repro.sim.flat_many_engine.FlatOneToManyEngine`).

Its :mod:`tests.replay` cells (families x placement policies x
communication policies x seeds, shuffled and sparse ids, lockstep,
degenerate host counts, truncated runs), then its own
contracts: the full-sweep cascade, placements, a shared RNG instance,
rejections and the ``decompose`` aliases.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.baselines import batagelj_zaversnik
from repro.core.assignment import assign
from repro.core.one_to_many import OneToManyConfig, run_one_to_many
from repro.errors import ConfigurationError, ConvergenceError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph

from tests.replay import (
    COMMUNICATIONS,
    FAMILIES,
    POLICIES,
    SPARSE_FAMILIES,
    cells,
    check,
    replay,
    sparse,
)


def _object(graph: Graph, **kw):
    return run_one_to_many(graph, OneToManyConfig(**kw))


def _flat(graph: Graph, **kw):
    return run_one_to_many(graph, OneToManyConfig(engine="flat", **kw))


class TestGrid:
    @pytest.mark.parametrize("communication", COMMUNICATIONS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_exact_replay(self, family, policy, communication):
        graph = FAMILIES[family]()
        for seed in (0, 1, 2):
            check("one-to-many-flat", graph, num_hosts=5, policy=policy,
                  communication=communication, seed=seed)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_exact_replay_shuffled_ids(self, family):
        check("one-to-many-flat", FAMILIES[family]().shuffled(seed=99),
              num_hosts=4, communication="p2p", seed=11)

    @pytest.mark.parametrize("family", SPARSE_FAMILIES)
    def test_exact_replay_sparse_ids(self, family):
        graph = sparse(FAMILIES[family]())
        for communication in COMMUNICATIONS:
            check("one-to-many-flat", graph, num_hosts=6,
                  communication=communication, seed=2)


class TestVariants:
    @pytest.mark.parametrize("communication", COMMUNICATIONS)
    def test_lockstep_mode(self, small_social, communication):
        check("one-to-many-flat", small_social, num_hosts=6,
              communication=communication, mode="lockstep")

    def test_flat_matches_naive_cascade(self, small_social):
        """The object engine's paper-verbatim full-sweep cascade reaches
        the same fixpoint — so the flat path matches it too."""
        obj = _object(small_social, num_hosts=5, use_worklist=False, seed=9)
        flat = _flat(small_social, num_hosts=5, seed=9)
        assert flat.coreness == obj.coreness
        assert flat.stats.extra["estimates_sent_total"] == \
            obj.stats.extra["estimates_sent_total"]

    def test_precomputed_assignment(self, small_social):
        assignment = assign(small_social, 8, policy="bfs", seed=1)
        check("one-to-many-flat", small_social, assignment=assignment,
              communication="p2p", seed=5)

    def test_shared_rng_instance_interleaves_identically(self):
        """A shared Random instance is consumed in the same order on
        both paths: placement first (random policy), then the per-round
        activation shuffles."""
        import random

        g = gen.erdos_renyi_graph(60, 0.08, seed=3)
        obj = _object(g, num_hosts=4, policy="random", seed=random.Random(42))
        flat = _flat(g, num_hosts=4, policy="random", seed=random.Random(42))
        assert flat.coreness == obj.coreness
        assert flat.stats.sends_per_round == obj.stats.sends_per_round
        assert flat.stats.extra == obj.stats.extra

    def test_seed_changes_the_run(self):
        """Sanity: the peersim host shuffle is live — different seeds
        give different per-round send profiles on an asymmetric graph."""
        g = gen.preferential_attachment_graph(140, 3, seed=6)
        profiles = {
            tuple(_flat(g, num_hosts=7, communication="p2p", seed=s)
                  .stats.sends_per_round)
            for s in range(8)
        }
        assert len(profiles) > 1


class TestHypothesis:
    @given(cells())
    @settings(max_examples=20, deadline=None)
    def test_random_graphs_exact_replay(self, example):
        replay(example, "one-to-many", engine="flat", backend="stdlib")


class TestEdgeCases:
    def test_empty_graph(self):
        check("one-to-many-flat", Graph(), num_hosts=3, seed=0)

    def test_single_host_degenerates_to_sequential(self, figure1):
        result = _flat(figure1, num_hosts=1)
        assert result.coreness == batagelj_zaversnik(figure1)
        assert result.stats.extra["estimates_sent_total"] == 0
        assert result.stats.total_messages == 0

    def test_one_host_per_node_mirrors_one_to_one(self, figure1):
        check("one-to-many-flat", figure1, num_hosts=figure1.num_nodes,
              seed=1)

    def test_more_hosts_than_nodes(self):
        check("one-to-many-flat", gen.cycle_graph(5), num_hosts=20, seed=2)

    @pytest.mark.parametrize("fixed_rounds", [1, 2, 3])
    @pytest.mark.parametrize("seed", (0, 3))
    def test_truncated_runs_match(self, fixed_rounds, seed):
        check("one-to-many-flat", gen.worst_case_graph(30), num_hosts=4,
              seed=seed, fixed_rounds=fixed_rounds)

    def test_strict_max_rounds_raises_like_object_engine(self):
        g = gen.worst_case_graph(30)
        with pytest.raises(ConvergenceError):
            _flat(g, num_hosts=4, seed=0, max_rounds=2)
        with pytest.raises(ConvergenceError):
            _object(g, num_hosts=4, seed=0, max_rounds=2)

    def test_flat_rejects_observers(self):
        with pytest.raises(ConfigurationError, match="observers"):
            _flat(gen.path_graph(4), num_hosts=2,
                  observers=(lambda r, e: None,))

    def test_flat_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            _flat(gen.path_graph(4), num_hosts=2, mode="warp")

    def test_flat_rejects_bad_communication(self):
        with pytest.raises(ConfigurationError):
            _flat(gen.path_graph(4), num_hosts=2,
                  communication="smoke-signals")

    def test_prebuilt_csr_requires_assignment(self):
        csr = CSRGraph.from_graph(gen.path_graph(5))
        with pytest.raises(ConfigurationError, match="assignment"):
            run_one_to_many(csr, OneToManyConfig(engine="flat"))

    def test_prebuilt_csr_with_assignment(self):
        g = gen.figure1_example()
        assignment = assign(g, 3)
        flat = run_one_to_many(CSRGraph.from_graph(g), OneToManyConfig(
            engine="flat", seed=4), assignment=assignment)
        obj = run_one_to_many(g, OneToManyConfig(seed=4), assignment=assignment)
        assert flat.coreness == obj.coreness
        assert flat.stats.sends_per_round == obj.stats.sends_per_round


class TestDecompose:
    def test_one_to_many_flat_algorithm(self, small_social):
        flat = check("one-to-many-flat", small_social, seed=3)
        assert flat.algorithm == "one-to-many/broadcast/modulo-flat"

    def test_decompose_accepts_precomputed_assignment(self, small_social):
        """The satellite: cluster scenarios reuse one placement across
        runs straight through decompose()."""
        from repro.core.api import decompose

        assignment = assign(small_social, 6, policy="bfs", seed=1)
        cut = assignment.cut_edges(small_social)
        for algorithm in ("one-to-many", "one-to-many-flat"):
            run = decompose(small_social, algorithm, assignment=assignment,
                            communication="p2p", seed=2)
            assert run.coreness == batagelj_zaversnik(small_social)
            assert run.stats.extra["num_hosts"] == 6
            assert run.stats.extra["cut_edges"] == cut
            assert "bfs" in run.algorithm

    def test_decompose_rejects_bad_assignment_type(self, small_social):
        from repro.core.api import decompose

        with pytest.raises(ConfigurationError, match="Assignment"):
            decompose(small_social, "one-to-many", assignment={0: 0})

    def test_one_to_many_flat_rejects_engine_override(self, small_social):
        from repro.core.api import decompose

        with pytest.raises(ConfigurationError, match="engine"):
            decompose(small_social, "one-to-many-flat", engine="round")
