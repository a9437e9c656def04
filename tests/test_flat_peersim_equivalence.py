"""The flat peersim engine (:class:`repro.sim.flat_engine.FlatPeerSimEngine`).

Its RNG-identical :mod:`tests.replay` cells (the families at five engine
seeds; shuffled ids, where the replay must shuffle the object engine's
insertion-order pid list; sparse ids, the send filter off, truncated
runs), then its own contracts: a shared RNG instance, the activation ids
and prebuilt CSR input.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.one_to_one import (
    OneToOneConfig,
    build_node_processes,
    run_one_to_one,
)
from repro.errors import ConfigurationError, ConvergenceError, SimulationError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.sim.engine import RoundEngine
from repro.sim.flat_engine import FlatPeerSimEngine

from tests.replay import FAMILIES, SPARSE_FAMILIES, cells, check, replay, sparse

FLAT = dict(engine="flat", mode="peersim")


def _run(graph: Graph, engine: str = "flat", **kw):
    return run_one_to_one(graph, OneToOneConfig(mode="peersim", engine=engine, **kw))


class TestFamilies:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("seed", (0, 1, 2, 3, 4))
    def test_rng_identical(self, family, seed):
        check("one-to-one", FAMILIES[family](), seed=seed, **FLAT)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rng_identical_without_send_filter(self, family):
        check("one-to-one", FAMILIES[family](), seed=3, optimize_sends=False,
              **FLAT)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rng_identical_shuffled_ids(self, family):
        check("one-to-one", FAMILIES[family]().shuffled(seed=99), seed=11,
              **FLAT)

    @pytest.mark.parametrize("family", SPARSE_FAMILIES)
    def test_rng_identical_sparse_ids(self, family):
        check("one-to-one", sparse(FAMILIES[family]()), seed=2, **FLAT)


class TestEdgeCases:
    def test_empty_graph(self):
        check("one-to-one", Graph(), seed=0, **FLAT)

    def test_single_node(self):
        check("one-to-one", gen.empty_graph(1), seed=0, **FLAT)

    def test_single_edge(self):
        check("one-to-one", Graph.from_edges([(4, 9)]), seed=1, **FLAT)

    def test_isolated_plus_component(self):
        g = gen.clique_graph(5)
        g.add_node(100)
        g.add_node(50)
        check("one-to-one", g, seed=5, **FLAT)

    @pytest.mark.parametrize("fixed_rounds", [1, 2, 3, 7])
    @pytest.mark.parametrize("seed", (0, 3))
    def test_truncated_runs_match(self, fixed_rounds, seed):
        check("one-to-one", gen.worst_case_graph(30), seed=seed,
              fixed_rounds=fixed_rounds, **FLAT)

    def test_strict_max_rounds_raises_like_object_engine(self):
        g = gen.worst_case_graph(30)
        for engine in ("flat", "round"):
            with pytest.raises(ConvergenceError):
                _run(g, engine, seed=0, max_rounds=3)

    def test_flat_rejects_observers(self):
        with pytest.raises(ConfigurationError):
            _run(gen.path_graph(4), observers=(lambda r, e: None,))

    def test_accepts_prebuilt_csr(self):
        """A prebuilt CSR defaults to ascending activation ids — the
        object engine's order for any ascending-iterating graph."""
        g = gen.figure1_example()
        flat = _run(CSRGraph.from_graph(g), seed=9)
        obj = _run(g, "round", seed=9)
        assert flat.coreness == obj.coreness
        assert flat.stats.sends_per_round == obj.stats.sends_per_round

    def test_shared_rng_instance_interleaves_identically(self):
        """Passing Random instances primed to the same state must yield
        the same run — the engines draw from the stream identically."""
        import random

        g = gen.erdos_renyi_graph(60, 0.08, seed=3)
        obj = _run(g, "round", seed=random.Random(42))
        flat = _run(g, seed=random.Random(42))
        assert flat.coreness == obj.coreness
        assert flat.stats.sends_per_round == obj.stats.sends_per_round

    def test_seed_changes_the_run(self):
        """Sanity: different seeds produce different activation orders,
        visible in the per-round send profile on an asymmetric graph
        (this is the spread Table 1 reports over repetitions)."""
        g = gen.preferential_attachment_graph(140, 3, seed=6)
        profiles = {
            tuple(_run(g, seed=s).stats.sends_per_round) for s in range(8)
        }
        assert len(profiles) > 1


class TestHypothesis:
    @given(cells())
    @settings(max_examples=20, deadline=None)
    def test_random_graphs_rng_identical(self, example):
        replay(example, "one-to-one", **FLAT)


class TestEngineDirect:
    def test_activation_ids_must_cover_all_nodes(self):
        csr = CSRGraph.from_graph(gen.path_graph(5))
        with pytest.raises(SimulationError):
            FlatPeerSimEngine(csr, activation_ids=[0, 1])

    def test_activation_ids_rejects_duplicates(self):
        """Right length but a repeated pid would leave a node forever
        unactivated (its mailbox never drains) — reject up front."""
        csr = CSRGraph.from_graph(gen.path_graph(3))
        with pytest.raises(SimulationError):
            FlatPeerSimEngine(csr, activation_ids=[0, 1, 1])

    def test_matches_raw_round_engine(self):
        """Directly against RoundEngine (not just run_one_to_one), with
        the process dict built in graph order."""
        g = gen.powerlaw_cluster_graph(90, 3, 0.25, seed=8).shuffled(seed=2)
        processes = build_node_processes(g)
        stats = RoundEngine(processes, mode="peersim", seed=17).run()
        flat = FlatPeerSimEngine(
            CSRGraph.from_graph(g), seed=17, activation_ids=list(g.nodes())
        )
        flat_stats = flat.run()
        assert flat.coreness() == {pid: p.core for pid, p in processes.items()}
        assert flat_stats.sends_per_round == stats.sends_per_round
        assert flat_stats.sent_per_process == stats.sent_per_process
        assert flat_stats.rounds_executed == stats.rounds_executed
        assert flat_stats.execution_time == stats.execution_time
