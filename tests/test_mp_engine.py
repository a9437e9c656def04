"""The multi-process engine is an exact replay of the flat engine.

The contract of :class:`repro.sim.mp_engine.MultiProcessOneToManyEngine`:
for every graph, placement policy, communication policy and seed, one
OS process per :class:`~repro.graph.sharded.HostShard` with
host-to-host batches over real ``multiprocessing`` channels reproduces
``FlatOneToManyEngine(mode="lockstep")`` *exactly* — coreness,
executed-round count, execution time, per-round send counts, per-host
message counts, the converged flag, and the Figure-5 overhead
accounting — which transitively makes it an exact replay of the object
``RoundEngine`` path too (``tests/test_flat_one_to_many_equivalence.py``
closes that leg).

The acceptance grid — 12 dataset families × 4 placement policies × 2
communication policies, >= 2 workers — runs in :class:`TestGrid` under
the cheap ``fork`` start method (identical semantics, no interpreter
re-exec); :class:`TestSpawn` re-proves a representative slice under the
default ``spawn`` method, which is what the CLI and a fresh-interpreter
deployment use. Shuffled/sparse ids, the ``p2p_filter`` extension,
numpy workers, truncated runs, transport metrics and the loud
configuration rejections follow.
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
from repro.sim.kernels import numpy_available

from tests.test_flat_one_to_many_equivalence import (
    COMMUNICATIONS,
    FAMILIES,
    POLICIES,
)


def _flat(graph: Graph, **kw):
    return run_one_to_many(
        graph, OneToManyConfig(engine="flat", mode="lockstep", **kw)
    )


def _mp(graph: Graph, start_method: str = "fork", **kw):
    # the serialization-cost guard rightly flags every test-sized run;
    # assert it fires where it should (tiny graphs, >= 2 workers) and
    # keep it out of the test log
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_one_to_many(
            graph,
            OneToManyConfig(
                engine="mp", mode="lockstep",
                mp_start_method=start_method, **kw,
            ),
        )


def assert_mp_replays_flat(
    graph: Graph, exact: bool = True, start_method: str = "fork", **kw
) -> None:
    flat = _flat(graph, **kw)
    mp_run = _mp(graph, start_method=start_method, **kw)
    assert mp_run.coreness == flat.coreness
    if exact:
        assert mp_run.coreness == batagelj_zaversnik(graph)
    sf, sm = flat.stats, mp_run.stats
    assert sm.rounds_executed == sf.rounds_executed
    assert sm.execution_time == sf.execution_time
    assert sm.sends_per_round == sf.sends_per_round
    assert sm.total_messages == sf.total_messages
    assert sm.sent_per_process == sf.sent_per_process
    assert sm.converged == sf.converged
    assert sm.extra["estimates_sent_total"] == sf.extra["estimates_sent_total"]
    assert sm.extra["estimates_sent_per_node"] == pytest.approx(
        sf.extra["estimates_sent_per_node"]
    )
    assert sm.extra["cut_edges"] == sf.extra["cut_edges"]
    assert sm.extra["num_hosts"] == sf.extra["num_hosts"]


class TestGrid:
    """The acceptance grid: 12 families × 4 policies × 2 communication
    policies, 3 worker processes per run (fork for speed; spawn safety
    is proven separately in :class:`TestSpawn`)."""

    @pytest.mark.parametrize("communication", COMMUNICATIONS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_exact_replay(self, family, policy, communication):
        assert_mp_replays_flat(
            FAMILIES[family](),
            num_hosts=3,
            policy=policy,
            communication=communication,
            seed=0,
        )

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_random_policy_tracks_placement_seed(self, seed):
        """The random policy derives the placement from the seed; the
        worker fleet must shard identically."""
        assert_mp_replays_flat(
            FAMILIES["ba"](),
            num_hosts=4,
            policy="random",
            communication="p2p",
            seed=seed,
        )

    @pytest.mark.parametrize("family", ["er", "worst-case"])
    def test_exact_replay_shuffled_ids(self, family):
        assert_mp_replays_flat(
            FAMILIES[family]().shuffled(seed=99),
            num_hosts=4,
            communication="p2p",
            seed=11,
        )

    def test_exact_replay_sparse_ids(self):
        g = FAMILIES["er"]()
        sparse = Graph.from_adjacency(
            {13 * u + 5: [13 * v + 5 for v in g.neighbors(u)] for u in g}
        )
        for communication in COMMUNICATIONS:
            assert_mp_replays_flat(
                sparse, num_hosts=5, communication=communication, seed=2
            )


class TestSpawn:
    """Spawn-safety: the default start method re-executes a fresh
    interpreter per worker; shard payloads, queues and the command
    protocol must all survive that."""

    @pytest.mark.parametrize("communication", COMMUNICATIONS)
    def test_exact_replay_spawn(self, communication):
        assert_mp_replays_flat(
            FAMILIES["er"](),
            start_method="spawn",
            num_hosts=2,
            communication=communication,
            seed=1,
        )

    def test_spawn_is_the_default(self, small_social):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = run_one_to_many(
                small_social,
                OneToManyConfig(engine="mp", mode="lockstep", num_hosts=2),
            )
        assert run.stats.extra["start_method"] == "spawn"
        assert run.coreness == batagelj_zaversnik(small_social)


class TestVariants:
    def test_p2p_filter_extension(self, small_social):
        assert_mp_replays_flat(
            small_social,
            num_hosts=4,
            communication="p2p",
            p2p_filter=True,
            seed=3,
        )

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    @pytest.mark.parametrize("communication", COMMUNICATIONS)
    def test_numpy_workers(self, communication):
        """Each worker resolves the backend by name in its own process;
        numpy workers replay the stdlib run bit-for-bit."""
        g = FAMILIES["plc"]()
        stdlib = _mp(g, num_hosts=3, communication=communication, seed=0)
        vectorised = _mp(
            g, num_hosts=3, communication=communication, seed=0,
            backend="numpy",
        )
        assert vectorised.coreness == stdlib.coreness
        assert (
            vectorised.stats.sends_per_round == stdlib.stats.sends_per_round
        )
        assert (
            vectorised.stats.extra["estimates_sent_total"]
            == stdlib.stats.extra["estimates_sent_total"]
        )

    def test_precomputed_assignment(self, small_social):
        assignment = assign(small_social, 6, policy="bfs", seed=1)
        flat = run_one_to_many(
            small_social,
            OneToManyConfig(engine="flat", mode="lockstep",
                            communication="p2p", seed=5),
            assignment=assignment,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mp_run = run_one_to_many(
                small_social,
                OneToManyConfig(engine="mp", mode="lockstep",
                                communication="p2p", seed=5,
                                mp_start_method="fork"),
                assignment=assignment,
            )
        assert mp_run.coreness == flat.coreness
        assert mp_run.stats.sends_per_round == flat.stats.sends_per_round
        assert mp_run.algorithm == "one-to-many/p2p/bfs-mp"

    def test_prebuilt_csr_with_assignment(self):
        g = gen.figure1_example()
        assignment = assign(g, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mp_run = run_one_to_many(
                CSRGraph.from_graph(g),
                OneToManyConfig(engine="mp", mode="lockstep", seed=4,
                                mp_start_method="fork"),
                assignment=assignment,
            )
        flat = run_one_to_many(
            g,
            OneToManyConfig(engine="flat", mode="lockstep", seed=4),
            assignment=assignment,
        )
        assert mp_run.coreness == flat.coreness
        assert mp_run.stats.sends_per_round == flat.stats.sends_per_round

    def test_transport_metrics_recorded(self, small_social):
        run = _mp(small_social, num_hosts=3, communication="p2p", seed=0)
        extra = run.stats.extra
        assert extra["workers"] == 3
        assert extra["start_method"] == "fork"
        # one bytes entry per executed round; traffic happened
        assert len(extra["pipe_bytes_per_round"]) == run.stats.rounds_executed
        assert extra["pipe_bytes_total"] == sum(extra["pipe_bytes_per_round"])
        assert extra["pipe_bytes_total"] > 0
        # the final (quiet) round carries no protocol bytes
        assert extra["pipe_bytes_per_round"][-1] == 0
        assert len(extra["shard_payload_bytes"]) == 3
        assert all(b > 0 for b in extra["shard_payload_bytes"])

    def test_serialization_guard_warns_on_small_runs(self, small_social):
        with pytest.warns(RuntimeWarning, match="nodes/worker"):
            run_one_to_many(
                small_social,
                OneToManyConfig(engine="mp", mode="lockstep", num_hosts=2,
                                mp_start_method="fork"),
            )


class TestEdgeCases:
    def test_empty_graph(self):
        assert_mp_replays_flat(Graph(), num_hosts=3, seed=0)

    def test_more_hosts_than_nodes(self):
        """Workers for empty shards idle but the barrier still closes."""
        assert_mp_replays_flat(gen.cycle_graph(5), num_hosts=8, seed=2)

    @pytest.mark.parametrize("fixed_rounds", [1, 2, 3])
    def test_truncated_runs_match(self, fixed_rounds):
        assert_mp_replays_flat(
            gen.worst_case_graph(30),
            exact=False,
            num_hosts=4,
            seed=0,
            fixed_rounds=fixed_rounds,
        )

    def test_strict_max_rounds_raises_like_flat_engine(self):
        g = gen.worst_case_graph(30)
        with pytest.raises(ConvergenceError):
            _mp(g, num_hosts=4, seed=0, max_rounds=2)


class TestRejections:
    """Unsupported combinations fail loudly in the config layer."""

    def test_rejects_peersim_mode(self, small_social):
        with pytest.raises(ConfigurationError, match="peersim"):
            run_one_to_many(
                small_social,
                OneToManyConfig(engine="mp", mode="peersim", num_hosts=3),
            )

    def test_default_mode_is_rejected_with_guidance(self, small_social):
        """OneToManyConfig defaults to peersim; engine='mp' requires the
        explicit lockstep choice and says so."""
        with pytest.raises(ConfigurationError, match="lockstep"):
            run_one_to_many(
                small_social, OneToManyConfig(engine="mp", num_hosts=3)
            )

    def test_rejects_single_host(self, small_social):
        with pytest.raises(ConfigurationError, match="num_hosts >= 2"):
            run_one_to_many(
                small_social,
                OneToManyConfig(engine="mp", mode="lockstep", num_hosts=1),
            )

    def test_rejects_observers(self, small_social):
        with pytest.raises(ConfigurationError, match="observers"):
            run_one_to_many(
                small_social,
                OneToManyConfig(
                    engine="mp", mode="lockstep", num_hosts=3,
                    observers=(lambda r, e: None,),
                ),
            )

    def test_rejects_unknown_start_method(self, small_social):
        with pytest.raises(ConfigurationError, match="start method"):
            _mp(small_social, start_method="warp", num_hosts=3)

    def test_rejects_start_method_on_other_engines(self, small_social):
        with pytest.raises(ConfigurationError, match="mp_start_method"):
            run_one_to_many(
                small_social,
                OneToManyConfig(engine="flat", mp_start_method="fork"),
            )

    def test_rejects_reply_timeout_on_other_engines(self, small_social):
        with pytest.raises(ConfigurationError, match="mp_reply_timeout"):
            run_one_to_many(
                small_social,
                OneToManyConfig(engine="round", mp_reply_timeout=10.0),
            )

    def test_rejects_nonpositive_reply_timeout(self, small_social):
        with pytest.raises(ConfigurationError, match="reply_timeout"):
            run_one_to_many(
                small_social,
                OneToManyConfig(engine="mp", mode="lockstep", num_hosts=2,
                                mp_reply_timeout=0.0),
            )

    def test_reply_timeout_is_honoured(self, small_social):
        """A generous configured timeout changes nothing observable; the
        knob reaches the engine (engine-level default is 300)."""
        run = _mp(small_social, num_hosts=2, mp_reply_timeout=30.0)
        assert run.coreness == batagelj_zaversnik(small_social)

    def test_rejects_unknown_backend_before_spawning(self, small_social):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            _mp(small_social, num_hosts=3, backend="cuda")

    def test_prebuilt_csr_requires_assignment(self):
        csr = CSRGraph.from_graph(gen.path_graph(5))
        with pytest.raises(ConfigurationError, match="assignment"):
            run_one_to_many(
                csr, OneToManyConfig(engine="mp", mode="lockstep")
            )


class TestDecompose:
    def test_one_to_many_mp_algorithm(self, small_social):
        from repro.core.api import decompose

        flat = decompose(
            small_social, "one-to-many-flat", mode="lockstep", seed=3
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mp_run = decompose(
                small_social, "one-to-many-mp", seed=3,
                mp_start_method="fork",
            )
        assert mp_run.coreness == flat.coreness
        assert mp_run.stats.sends_per_round == flat.stats.sends_per_round
        assert mp_run.algorithm == "one-to-many/broadcast/modulo-mp"

    def test_rejects_engine_override(self, small_social):
        from repro.core.api import decompose

        with pytest.raises(ConfigurationError, match="engine"):
            decompose(small_social, "one-to-many-mp", engine="flat")
