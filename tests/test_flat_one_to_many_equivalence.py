"""The flat one-to-many engine is an exact replay of the object engine.

The contract of :class:`repro.sim.flat_many_engine.FlatOneToManyEngine`:
for every graph, placement policy, communication policy, delivery mode
and seed, the sharded flat path reproduces ``RoundEngine`` driving
``KCoreHost`` processes *exactly* — coreness, executed-round count,
execution time, per-round send counts, per-host message counts, the
converged flag, and the Figure-5 overhead accounting
(``estimates_sent_total`` / ``estimates_sent_per_node``) along with
``cut_edges`` / ``num_hosts``. Under ``mode="peersim"`` the replay
consumes the identical RNG stream (one shuffle of the host pid list
``0..H-1`` per executed round), so each seed's run is *the same run*.

The acceptance grid from the issue — 12 dataset families × 4 placement
policies × 2 communication policies × ≥3 seeds — runs in
:class:`TestGrid`; shuffled and sparse node ids, the ``p2p_filter``
extension, lockstep mode, truncated runs and hypothesis-generated
graphs follow.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import batagelj_zaversnik
from repro.core.assignment import assign
from repro.core.one_to_many import OneToManyConfig, run_one_to_many
from repro.errors import ConfigurationError, ConvergenceError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph

from tests.conftest import graphs

#: name -> builder; spans sparse/dense, regular/heavy-tailed, isolated
#: nodes, huge-diameter, and the paper's adversarial family — the same
#: twelve families as the one-to-one replay suite.
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

POLICIES = ("modulo", "block", "random", "bfs")
COMMUNICATIONS = ("broadcast", "p2p")

#: Engine seeds — each drives a different activation order (and, for
#: the random policy, a different placement); the replay must track the
#: object engine through every one.
SEEDS = (0, 1, 2)


def _object(graph: Graph, **kw):
    return run_one_to_many(graph, OneToManyConfig(**kw))


def _flat(graph: Graph, **kw):
    return run_one_to_many(graph, OneToManyConfig(engine="flat", **kw))


def assert_exact_replay(graph: Graph, exact: bool = True, **kw) -> None:
    obj = _object(graph, **kw)
    flat = _flat(graph, **kw)
    assert flat.coreness == obj.coreness
    if exact:
        assert flat.coreness == batagelj_zaversnik(graph)
    so, sf = obj.stats, flat.stats
    assert sf.rounds_executed == so.rounds_executed
    assert sf.execution_time == so.execution_time
    assert sf.sends_per_round == so.sends_per_round
    assert sf.total_messages == so.total_messages
    assert sf.sent_per_process == so.sent_per_process
    assert sf.converged == so.converged
    # the Figure-5 overhead accounting and the partition statistics
    assert sf.extra["estimates_sent_total"] == so.extra["estimates_sent_total"]
    assert sf.extra["estimates_sent_per_node"] == pytest.approx(
        so.extra["estimates_sent_per_node"]
    )
    assert sf.extra["cut_edges"] == so.extra["cut_edges"]
    assert sf.extra["num_hosts"] == so.extra["num_hosts"]


class TestGrid:
    """The issue's acceptance grid: 12 families × 4 policies × 2
    communication policies × 3 seeds (seeds loop inside each cell)."""

    @pytest.mark.parametrize("communication", COMMUNICATIONS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_exact_replay(self, family, policy, communication):
        graph = FAMILIES[family]()
        for seed in SEEDS:
            assert_exact_replay(
                graph,
                num_hosts=5,
                policy=policy,
                communication=communication,
                seed=seed,
            )

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_exact_replay_shuffled_ids(self, family):
        """Permuted non-contiguous ids change the placement (modulo on
        original ids) and the compaction — the replay must still hold."""
        assert_exact_replay(
            FAMILIES[family]().shuffled(seed=99),
            num_hosts=4,
            communication="p2p",
            seed=11,
        )

    @pytest.mark.parametrize("family", ["er", "ba", "worst-case", "grid"])
    def test_exact_replay_sparse_ids(self, family):
        """Ids spread out with gaps (13u + 5), exercising compaction and
        the modulo policy's id-dependent host map."""
        g = FAMILIES[family]()
        sparse = Graph.from_adjacency(
            {13 * u + 5: [13 * v + 5 for v in g.neighbors(u)] for u in g}
        )
        for communication in COMMUNICATIONS:
            assert_exact_replay(
                sparse, num_hosts=6, communication=communication, seed=2
            )


class TestVariants:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_p2p_filter_extension(self, small_social, seed):
        """The host-level send filter must suppress exactly the same
        estimates on both paths."""
        assert_exact_replay(
            small_social,
            num_hosts=6,
            communication="p2p",
            p2p_filter=True,
            seed=seed,
        )

    @pytest.mark.parametrize("communication", COMMUNICATIONS)
    def test_lockstep_mode(self, small_social, communication):
        assert_exact_replay(
            small_social,
            num_hosts=6,
            communication=communication,
            mode="lockstep",
        )

    def test_flat_matches_naive_cascade(self, small_social):
        """The object engine's paper-verbatim full-sweep cascade reaches
        the same fixpoint — so the flat path matches it too."""
        obj = _object(small_social, num_hosts=5, use_worklist=False, seed=9)
        flat = _flat(small_social, num_hosts=5, seed=9)
        assert flat.coreness == obj.coreness
        assert (
            flat.stats.extra["estimates_sent_total"]
            == obj.stats.extra["estimates_sent_total"]
        )

    def test_precomputed_assignment(self, small_social):
        assignment = assign(small_social, 8, policy="bfs", seed=1)
        config = OneToManyConfig(communication="p2p", seed=5)
        obj = run_one_to_many(small_social, config, assignment=assignment)
        flat = run_one_to_many(
            small_social,
            OneToManyConfig(engine="flat", communication="p2p", seed=5),
            assignment=assignment,
        )
        assert flat.coreness == obj.coreness
        assert flat.stats.extra == obj.stats.extra

    def test_shared_rng_instance_interleaves_identically(self):
        """A shared Random instance is consumed in the same order on
        both paths: placement first (random policy), then the per-round
        activation shuffles."""
        import random

        g = gen.erdos_renyi_graph(60, 0.08, seed=3)
        obj = _object(g, num_hosts=4, policy="random",
                      seed=random.Random(42))
        flat = _flat(g, num_hosts=4, policy="random",
                     seed=random.Random(42))
        assert flat.coreness == obj.coreness
        assert flat.stats.sends_per_round == obj.stats.sends_per_round
        assert flat.stats.extra == obj.stats.extra

    def test_seed_changes_the_run(self):
        """Sanity: the peersim host shuffle is live — different seeds
        give different per-round send profiles on an asymmetric graph."""
        g = gen.preferential_attachment_graph(140, 3, seed=6)
        profiles = {
            tuple(_flat(g, num_hosts=7, communication="p2p",
                        seed=s).stats.sends_per_round)
            for s in range(8)
        }
        assert len(profiles) > 1


class TestEdgeCases:
    def test_empty_graph(self):
        assert_exact_replay(Graph(), num_hosts=3, seed=0)

    def test_single_host_degenerates_to_sequential(self, figure1):
        result = _flat(figure1, num_hosts=1)
        assert result.coreness == batagelj_zaversnik(figure1)
        assert result.stats.extra["estimates_sent_total"] == 0
        assert result.stats.total_messages == 0

    def test_one_host_per_node_mirrors_one_to_one(self, figure1):
        assert_exact_replay(figure1, num_hosts=figure1.num_nodes, seed=1)

    def test_more_hosts_than_nodes(self):
        assert_exact_replay(gen.cycle_graph(5), num_hosts=20, seed=2)

    @pytest.mark.parametrize("fixed_rounds", [1, 2, 3])
    @pytest.mark.parametrize("seed", (0, 3))
    def test_truncated_runs_match(self, fixed_rounds, seed):
        g = gen.worst_case_graph(30)
        assert_exact_replay(
            g,
            exact=False,
            num_hosts=4,
            seed=seed,
            fixed_rounds=fixed_rounds,
        )

    def test_strict_max_rounds_raises_like_object_engine(self):
        g = gen.worst_case_graph(30)
        with pytest.raises(ConvergenceError):
            _flat(g, num_hosts=4, seed=0, max_rounds=2)
        with pytest.raises(ConvergenceError):
            _object(g, num_hosts=4, seed=0, max_rounds=2)

    def test_flat_rejects_observers(self):
        with pytest.raises(ConfigurationError, match="observers"):
            _flat(
                gen.path_graph(4),
                num_hosts=2,
                observers=(lambda r, e: None,),
            )

    def test_flat_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            _flat(gen.path_graph(4), num_hosts=2, mode="warp")

    def test_flat_rejects_bad_communication(self):
        with pytest.raises(ConfigurationError):
            _flat(gen.path_graph(4), num_hosts=2,
                  communication="smoke-signals")

    def test_flat_rejects_filter_without_p2p(self):
        with pytest.raises(ConfigurationError, match="p2p"):
            _flat(gen.path_graph(4), num_hosts=2, p2p_filter=True)

    def test_prebuilt_csr_requires_assignment(self):
        csr = CSRGraph.from_graph(gen.path_graph(5))
        with pytest.raises(ConfigurationError, match="assignment"):
            run_one_to_many(csr, OneToManyConfig(engine="flat"))

    def test_prebuilt_csr_with_assignment(self):
        g = gen.figure1_example()
        assignment = assign(g, 3)
        flat = run_one_to_many(
            CSRGraph.from_graph(g),
            OneToManyConfig(engine="flat", seed=4),
            assignment=assignment,
        )
        obj = run_one_to_many(
            g, OneToManyConfig(seed=4), assignment=assignment
        )
        assert flat.coreness == obj.coreness
        assert flat.stats.sends_per_round == obj.stats.sends_per_round


class TestDecompose:
    def test_one_to_many_flat_algorithm(self, small_social):
        from repro.core.api import decompose

        obj = decompose(small_social, "one-to-many", seed=3)
        flat = decompose(small_social, "one-to-many-flat", seed=3)
        assert flat.coreness == obj.coreness
        assert flat.stats.extra == obj.stats.extra
        assert flat.algorithm == "one-to-many/broadcast/modulo-flat"

    def test_decompose_accepts_precomputed_assignment(self, small_social):
        """The satellite: cluster scenarios reuse one placement across
        runs straight through decompose()."""
        from repro.core.api import decompose

        assignment = assign(small_social, 6, policy="bfs", seed=1)
        for algorithm in ("one-to-many", "one-to-many-flat"):
            run = decompose(
                small_social,
                algorithm,
                assignment=assignment,
                communication="p2p",
                seed=2,
            )
            assert run.coreness == batagelj_zaversnik(small_social)
            assert run.stats.extra["num_hosts"] == 6
            assert run.stats.extra["cut_edges"] == assignment.cut_edges(
                small_social
            )
            assert "bfs" in run.algorithm

    def test_decompose_rejects_bad_assignment_type(self, small_social):
        from repro.core.api import decompose

        with pytest.raises(ConfigurationError, match="Assignment"):
            decompose(small_social, "one-to-many", assignment={0: 0})

    def test_one_to_many_flat_rejects_engine_override(self, small_social):
        from repro.core.api import decompose

        with pytest.raises(ConfigurationError, match="engine"):
            decompose(small_social, "one-to-many-flat", engine="round")


class TestHypothesis:
    @given(
        graphs(),
        st.integers(1, 8),
        st.integers(0, 5),
        st.sampled_from(POLICIES),
        st.sampled_from(COMMUNICATIONS),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_exact_replay(
        self, g: Graph, hosts: int, seed: int, policy: str, communication: str
    ):
        assert_exact_replay(
            g,
            num_hosts=hosts,
            policy=policy,
            communication=communication,
            seed=seed,
        )
