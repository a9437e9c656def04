"""The multi-process engine (:class:`repro.sim.mp_engine.MultiProcessOneToManyEngine`).

Its :mod:`tests.replay` cells replay the flat lockstep engine (families
x placement x communication policies on 3 ``fork`` workers, the random
policy's seed, shuffled and sparse ids, numpy workers, degenerate host
counts, truncated runs, a ``spawn`` slice), then its own
contracts: transport metrics, the serialization guard and rejections.
"""

from __future__ import annotations

import warnings

import pytest

from repro.baselines import batagelj_zaversnik
from repro.core.assignment import assign
from repro.core.one_to_many import OneToManyConfig, run_one_to_many
from repro.errors import ConfigurationError, ConvergenceError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph

from tests.replay import COMMUNICATIONS, FAMILIES, POLICIES, check, run, sparse

MP = "one-to-many-mp"


def _run(graph, **kw):
    return run_one_to_many(graph, OneToManyConfig(**kw))


class TestGrid:
    @pytest.mark.parametrize("communication", COMMUNICATIONS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_exact_replay(self, family, policy, communication):
        check(MP, FAMILIES[family](), num_hosts=3, policy=policy,
              communication=communication, seed=0)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_random_policy_tracks_placement_seed(self, seed):
        """The random policy derives the placement from the seed; the
        worker fleet must shard identically."""
        check(MP, FAMILIES["ba"](), num_hosts=4, policy="random",
              communication="p2p", seed=seed)

    @pytest.mark.parametrize("family", ["er", "worst-case"])
    def test_exact_replay_shuffled_ids(self, family):
        check(MP, FAMILIES[family]().shuffled(seed=99), num_hosts=4,
              communication="p2p", seed=11)

    def test_exact_replay_sparse_ids(self):
        graph = sparse(FAMILIES["er"]())
        for communication in COMMUNICATIONS:
            check(MP, graph, num_hosts=5, communication=communication, seed=2)


class TestSpawn:
    """Spawn-safety: the default start method re-executes a fresh
    interpreter per worker; shard payloads, queues and the command
    protocol must all survive that."""

    @pytest.mark.parametrize("communication", COMMUNICATIONS)
    def test_exact_replay_spawn(self, communication):
        check(MP, FAMILIES["er"](), mp_start_method="spawn", num_hosts=2,
              communication=communication, seed=1)

    def test_spawn_is_the_default(self, small_social):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = _run(small_social, engine="mp", mode="lockstep",
                          num_hosts=2)
        assert result.stats.extra["start_method"] == "spawn"
        assert result.coreness == batagelj_zaversnik(small_social)


class TestVariants:
    @pytest.mark.parametrize("communication", COMMUNICATIONS)
    def test_numpy_workers(self, communication):
        """Each worker resolves the backend by name in its own process;
        numpy workers replay the stdlib run bit-for-bit."""
        check(MP, FAMILIES["plc"](), num_hosts=3, communication=communication,
              seed=0, backend="numpy")

    def test_precomputed_assignment(self, small_social):
        assignment = assign(small_social, 6, policy="bfs", seed=1)
        mp_run = check(MP, small_social, assignment=assignment,
                       communication="p2p", seed=5)
        assert mp_run.algorithm == "one-to-many/p2p/bfs-mp"

    def test_prebuilt_csr_with_assignment(self):
        g = gen.figure1_example()
        assignment = assign(g, 3)
        mp_run = run(MP, CSRGraph.from_graph(g), assignment=assignment, seed=4)
        flat = run("one-to-many-flat", g, mode="lockstep",
                   assignment=assignment, seed=4)
        assert mp_run.coreness == flat.coreness
        assert mp_run.stats.sends_per_round == flat.stats.sends_per_round

    def test_transport_metrics_recorded(self, small_social):
        result = run(MP, small_social, num_hosts=3, communication="p2p",
                     seed=0)
        extra = result.stats.extra
        assert extra["workers"] == 3
        assert extra["start_method"] == "fork"
        # one bytes entry per executed round; traffic happened
        assert len(extra["pipe_bytes_per_round"]) == result.stats.rounds_executed
        assert extra["pipe_bytes_total"] == sum(extra["pipe_bytes_per_round"])
        assert extra["pipe_bytes_total"] > 0
        # the final (quiet) round carries no protocol bytes
        assert extra["pipe_bytes_per_round"][-1] == 0
        assert len(extra["shard_payload_bytes"]) == 3
        assert all(b > 0 for b in extra["shard_payload_bytes"])

    def test_serialization_guard_warns_on_small_runs(self, small_social):
        with pytest.warns(RuntimeWarning, match="nodes/worker"):
            _run(small_social, engine="mp", mode="lockstep", num_hosts=2,
                 mp_start_method="fork")


class TestEdgeCases:
    def test_empty_graph(self):
        check(MP, Graph(), num_hosts=3, seed=0)

    def test_more_hosts_than_nodes(self):
        """Workers for empty shards idle but the barrier still closes."""
        check(MP, gen.cycle_graph(5), num_hosts=8, seed=2)

    @pytest.mark.parametrize("fixed_rounds", [1, 2, 3])
    def test_truncated_runs_match(self, fixed_rounds):
        check(MP, gen.worst_case_graph(30), num_hosts=4, seed=0,
              fixed_rounds=fixed_rounds)

    def test_strict_max_rounds_raises_like_flat_engine(self):
        g = gen.worst_case_graph(30)
        with pytest.raises(ConvergenceError):
            run(MP, g, num_hosts=4, seed=0, max_rounds=2)


class TestRejections:
    """Unsupported combinations fail loudly in the config layer."""

    def test_rejects_peersim_mode(self, small_social):
        with pytest.raises(ConfigurationError, match="peersim"):
            _run(small_social, engine="mp", mode="peersim", num_hosts=3)

    def test_default_mode_is_rejected_with_guidance(self, small_social):
        """OneToManyConfig defaults to peersim; engine='mp' requires the
        explicit lockstep choice and says so."""
        with pytest.raises(ConfigurationError, match="lockstep"):
            _run(small_social, engine="mp", num_hosts=3)

    def test_rejects_single_host(self, small_social):
        with pytest.raises(ConfigurationError, match="num_hosts >= 2"):
            _run(small_social, engine="mp", mode="lockstep", num_hosts=1)

    def test_rejects_observers(self, small_social):
        with pytest.raises(ConfigurationError, match="observers"):
            _run(small_social, engine="mp", mode="lockstep", num_hosts=3,
                 observers=(lambda r, e: None,))

    def test_rejects_unknown_start_method(self, small_social):
        with pytest.raises(ConfigurationError, match="start method"):
            run(MP, small_social, mp_start_method="warp", num_hosts=3)

    def test_rejects_start_method_on_other_engines(self, small_social):
        with pytest.raises(ConfigurationError, match="mp_start_method"):
            _run(small_social, engine="flat", mp_start_method="fork")

    def test_rejects_reply_timeout_on_other_engines(self, small_social):
        with pytest.raises(ConfigurationError, match="mp_reply_timeout"):
            _run(small_social, engine="round", mp_reply_timeout=10.0)

    def test_rejects_nonpositive_reply_timeout(self, small_social):
        with pytest.raises(ConfigurationError, match="reply_timeout"):
            _run(small_social, engine="mp", mode="lockstep", num_hosts=2,
                 mp_reply_timeout=0.0)

    def test_reply_timeout_is_honoured(self, small_social):
        """A generous configured timeout changes nothing observable; the
        knob reaches the engine (engine-level default is 300)."""
        result = run(MP, small_social, num_hosts=2, mp_reply_timeout=30.0)
        assert result.coreness == batagelj_zaversnik(small_social)

    def test_rejects_unknown_backend_before_spawning(self, small_social):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            run(MP, small_social, num_hosts=3, backend="cuda")

    def test_prebuilt_csr_requires_assignment(self):
        csr = CSRGraph.from_graph(gen.path_graph(5))
        with pytest.raises(ConfigurationError, match="assignment"):
            _run(csr, engine="mp", mode="lockstep")


class TestDecompose:
    def test_one_to_many_mp_algorithm(self, small_social):
        mp_run = check(MP, small_social, seed=3)
        assert mp_run.algorithm == "one-to-many/broadcast/modulo-mp"

    def test_rejects_engine_override(self, small_social):
        from repro.core.api import decompose

        with pytest.raises(ConfigurationError, match="engine"):
            decompose(small_social, "one-to-many-mp", engine="flat")
