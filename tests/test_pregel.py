"""Tests for the Pregel/BSP framework and the k-core program on it."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import batagelj_zaversnik
from repro.errors import ConfigurationError, ConvergenceError
from repro.graph import generators as gen
from repro.graph.graph import Graph
from repro.pregel.framework import (
    MaxAggregator,
    MinCombiner,
    PregelMaster,
    SumAggregator,
    Vertex,
)
from repro.pregel.kcore import run_pregel_kcore

from tests.conftest import graphs
from tests.replay import FAMILIES, check


class Forwarder(Vertex[int]):
    """Test vertex: floods its value once, then halts."""

    def compute(self, ctx, messages):
        if ctx.superstep == 0:
            for v in self.neighbors:
                ctx.send(v, (self.vid, self.value))
        else:
            for _, value in messages:
                self.value = max(self.value, value)
        ctx.vote_to_halt()


class TestFramework:
    def test_two_supersteps_for_one_hop_flood(self):
        vertices = [Forwarder(0, 7, [1]), Forwarder(1, 1, [0])]
        master = PregelMaster(vertices, num_workers=1)
        stats = master.run()
        assert master.vertices[1].value == 7
        assert stats.supersteps == 2
        assert stats.total_messages == 2

    def test_halted_vertex_wakes_on_message(self):
        class LateSender(Vertex[int]):
            def compute(self, ctx, messages):
                if ctx.superstep == 2 and self.vid == 0:
                    ctx.send(1, (0, 99))
                ctx.vote_to_halt()

        class Sleeper(Vertex[int]):
            woke = False

            def compute(self, ctx, messages):
                if messages:
                    type(self).woke = True
                    self.value = messages[0][1]
                ctx.vote_to_halt()

        # vertex 0 stays active by re-waking itself via self-message
        class Clock(Vertex[int]):
            def compute(self, ctx, messages):
                if ctx.superstep < 3:
                    ctx.send(0, (0, ctx.superstep))
                else:
                    ctx.vote_to_halt()
                if ctx.superstep == 2:
                    ctx.send(1, (0, 99))

        vertices = [Clock(0, 0, [1]), Sleeper(1, 0, [0])]
        PregelMaster(vertices, num_workers=2).run()
        assert Sleeper.woke
        assert vertices[1].value == 99

    def test_unknown_destination_raises(self):
        class Bad(Vertex[int]):
            def compute(self, ctx, messages):
                ctx.send(42, (self.vid, 1))
                ctx.vote_to_halt()

        with pytest.raises(ConfigurationError):
            PregelMaster([Bad(0, 0, [])], num_workers=1).run()

    def test_max_supersteps_guard(self):
        class Spinner(Vertex[int]):
            def compute(self, ctx, messages):
                ctx.send(self.vid, (self.vid, 0))  # self-message forever

        with pytest.raises(ConvergenceError):
            PregelMaster([Spinner(0, 0, [])], max_supersteps=5).run()

    def test_invalid_worker_count(self):
        with pytest.raises(ConfigurationError):
            PregelMaster([Forwarder(0, 0, [])], num_workers=0)

    def test_aggregator_visible_next_superstep(self):
        seen: list[object] = []

        class Reporter(Vertex[int]):
            def compute(self, ctx, messages):
                if ctx.superstep == 0:
                    ctx.aggregate("max", self.value)
                    ctx.send(self.vid, (self.vid, 0))  # stay alive
                elif ctx.superstep == 1:
                    seen.append(ctx.aggregated("max"))
                    ctx.vote_to_halt()
                else:
                    ctx.vote_to_halt()

        vertices = [Reporter(i, i * 10, []) for i in range(4)]
        PregelMaster(
            vertices, num_workers=2, aggregators=(MaxAggregator("max"),)
        ).run()
        assert seen == [30, 30, 30, 30]

    def test_sum_aggregator(self):
        agg = SumAggregator("s")
        total = agg.zero()
        for value in (1, 2, 3):
            total = agg.reduce(total, value)
        assert total == 6

    def test_combiner_reduces_traffic(self):
        class DoubleSend(Vertex[int]):
            def compute(self, ctx, messages):
                if ctx.superstep == 0:
                    # two messages to the same target from the same sender
                    ctx.send(1, (self.vid, 5))
                    ctx.send(1, (self.vid, 3))
                ctx.vote_to_halt()

        class Sink(Vertex[int]):
            received: list = []

            def compute(self, ctx, messages):
                type(self).received.extend(messages)
                ctx.vote_to_halt()

        Sink.received = []
        vertices = [DoubleSend(0, 0, [1]), Sink(1, 0, [0])]
        master = PregelMaster(vertices, num_workers=1, combiner=MinCombiner())
        stats = master.run()
        assert stats.combined_away == 1
        assert Sink.received == [(0, 3)]  # the min survived

    def test_worker_traffic_split(self):
        g = gen.path_graph(6)
        result = run_pregel_kcore(g, num_workers=2, partition_policy="block")
        extra = result.stats.extra
        assert extra["inter_worker_messages"] + extra["intra_worker_messages"] == (
            result.stats.total_messages
        )
        # block partition of a path: only one cut edge, so intra dominates
        assert extra["intra_worker_messages"] > extra["inter_worker_messages"]


class TestKCoreOnPregel:
    @given(graphs(), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, g, workers):
        result = run_pregel_kcore(g, num_workers=workers)
        assert result.coreness == batagelj_zaversnik(g)

    def test_without_combiner_same_result(self, small_social):
        with_combiner = run_pregel_kcore(small_social, use_combiner=True)
        without = run_pregel_kcore(small_social, use_combiner=False)
        assert with_combiner.coreness == without.coreness

    def test_supersteps_match_lockstep_rounds(self, small_social):
        """BSP supersteps == synchronous engine rounds (same schedule)."""
        from repro.core.one_to_one import OneToOneConfig, run_one_to_one

        pregel = run_pregel_kcore(small_social, optimize_sends=False)
        lockstep = run_one_to_one(
            small_social,
            OneToOneConfig(mode="lockstep", optimize_sends=False),
        )
        assert pregel.stats.extra["supersteps"] == (
            lockstep.stats.rounds_executed
        )

    def test_decompose_dispatch(self, figure1):
        from repro.core.api import decompose

        result = decompose(figure1, "pregel", num_workers=3)
        assert result.coreness == batagelj_zaversnik(figure1)

    def test_worst_case_supersteps(self):
        g = gen.worst_case_graph(10)
        result = run_pregel_kcore(g, optimize_sends=False)
        assert result.stats.extra["supersteps"] == 9  # N - 1


class TestFlatEngineEquivalence:
    """``engine="flat"`` replays the BSP master's observable counters —
    including the per-superstep active-vertex trace, which the flat
    path recomputes from the slot owners instead of vertex flags."""

    @pytest.mark.parametrize("family", sorted(
        ("er", "er-with-isolated", "star", "worst-case", "caveman", "empty")
    ))
    @pytest.mark.parametrize("optimize_sends", (True, False))
    def test_counters_match(self, family, optimize_sends):
        check("pregel", FAMILIES[family](), engine="flat", num_workers=3,
              optimize_sends=optimize_sends)

    def test_active_per_superstep_surfaced(self, small_social):
        flat = check("pregel", small_social, engine="flat", num_workers=2)
        active = flat.stats.extra["active_per_superstep"]
        # one entry per superstep; superstep 0 activates every vertex
        assert len(active) == flat.stats.extra["supersteps"]
        assert active[0] == small_social.num_nodes


class TestSuperstepGuard:
    """Both engines raise exactly when ``max_supersteps`` is at most the
    superstep count, which includes the final quiet superstep."""

    @pytest.mark.parametrize("engine", ("object", "flat"))
    @pytest.mark.parametrize("graph, supersteps", (
        (gen.worst_case_graph(10), 9), (Graph(), 1), (gen.empty_graph(3), 1),
    ), ids=("worst-case", "no-nodes", "no-edges"))
    def test_raises_exactly_at_the_superstep_count(self, engine, graph,
                                                   supersteps):
        for cap in range(supersteps + 2):
            kw = dict(optimize_sends=False, max_supersteps=cap, engine=engine)
            if cap <= supersteps:
                with pytest.raises(ConvergenceError) as raised:
                    run_pregel_kcore(graph, **kw)
                assert raised.value.rounds == cap
            else:
                run = run_pregel_kcore(graph, **kw)
                assert run.stats.extra["supersteps"] == supersteps
