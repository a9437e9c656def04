"""Tests for the analysis package (error traces, completion, reports,
spreading)."""

from __future__ import annotations

import pytest

from repro.analysis import (
    core_completion_table,
    overhead_sweep,
    run_with_error_trace,
    sir_spread,
    spreading_power,
    table1_row,
)
from repro.baselines import batagelj_zaversnik
from repro.core.one_to_one import OneToOneConfig
from repro.graph import generators as gen


@pytest.fixture(scope="module")
def social():
    return gen.powerlaw_cluster_graph(250, 3, 0.3, seed=17)


class TestErrorTraces:
    def test_average_error_monotone_nonincreasing(self, social):
        _, trace = run_with_error_trace(social, OneToOneConfig(seed=2))
        series = trace.average_error
        assert all(a >= b for a, b in zip(series, series[1:]))
        assert series[-1] == 0.0

    def test_max_error_reaches_zero(self, social):
        result, trace = run_with_error_trace(social, OneToOneConfig(seed=2))
        assert trace.maximum_error[-1] == 0
        assert result.coreness == batagelj_zaversnik(social)

    def test_figure4_claim_max_error_small_quickly(self, social):
        """Paper: max error <= 1 by cycle ~22 on all datasets; tiny
        synthetic graphs satisfy it much earlier."""
        _, trace = run_with_error_trace(social, OneToOneConfig(seed=2))
        assert trace.rounds_to_max_error(1) is not None
        assert trace.rounds_to_max_error(1) <= 22

    def test_trace_respects_fixed_rounds(self, social):
        _, trace = run_with_error_trace(
            social, OneToOneConfig(seed=2, fixed_rounds=4)
        )
        assert len(trace.average_error) <= 4

    def test_initial_error_is_degree_minus_coreness(self, social):
        truth = batagelj_zaversnik(social)
        _, trace = run_with_error_trace(social, OneToOneConfig(seed=2))
        expected = sum(
            social.degree(u) - truth[u] for u in social.nodes()
        ) / social.num_nodes
        assert trace.average_error[0] == pytest.approx(expected)


class TestCoreCompletion:
    def test_rows_shape_and_percentages(self):
        graph = gen.worst_case_graph(40)
        result, observer, rows = core_completion_table(
            graph,
            checkpoints=[5, 10, 20, 40],
            config=OneToOneConfig(mode="lockstep", optimize_sends=False),
        )
        assert result.coreness == batagelj_zaversnik(graph)
        # single shell (coreness 2 everywhere): one row, shrinking %
        assert len(rows) == 1
        k, size, *percentages = rows[0]
        assert k == 2 and size == 40
        numeric = [p for p in percentages if p != ""]
        assert all(
            a >= b for a, b in zip(numeric, numeric[1:])
        )

    def test_completed_shells_omitted(self, social):
        _, observer, rows = core_completion_table(
            social, checkpoints=[50], config=OneToOneConfig(seed=1)
        )
        # by round 50 this small graph has fully converged
        assert rows == []

    def test_percentage_for_unknown_shell_is_zero(self, social):
        _, observer, _ = core_completion_table(
            social, checkpoints=[5], config=OneToOneConfig(seed=1)
        )
        assert observer.percentage(shell=999, checkpoint=5) == 0.0

    def test_runs_the_config_as_given(self):
        """``fixed_rounds`` stops the run and the caller's observers see
        every round, as in :func:`run_with_error_trace`."""
        seen: list[int] = []
        result, observer, _ = core_completion_table(
            gen.worst_case_graph(40),
            checkpoints=[2, 3, 10],
            config=OneToOneConfig(
                mode="lockstep",
                fixed_rounds=3,
                observers=(lambda rnd, engine: seen.append(rnd),),
            ),
        )
        assert result.stats.rounds_executed == 3
        assert seen == [1, 2, 3]
        assert sorted(observer.wrong_at) == [2, 3]
        assert result.algorithm == "one-to-one/core-completion"


class TestTable1Row:
    def test_row_fields(self, social):
        row = table1_row(social, repetitions=3, seed=1)
        truth = batagelj_zaversnik(social)
        assert row.num_nodes == social.num_nodes
        assert row.coreness_max == max(truth.values())
        assert row.t_min <= row.t_avg <= row.t_max
        assert row.m_avg <= row.m_max
        assert len(row.as_list()) == len(row.HEADERS)

    def test_repetitions_must_agree_with_oracle(self, social):
        # table1_row raises if any run diverges; passing means agreement
        table1_row(social, repetitions=2, seed=9)


class TestOverheadSweep:
    def test_broadcast_flat_p2p_growing(self, social):
        hosts = [2, 8, 32]
        broadcast = overhead_sweep(
            social, hosts, "broadcast", repetitions=2, seed=1
        )
        p2p = overhead_sweep(social, hosts, "p2p", repetitions=2, seed=1)
        # figure 5: broadcast < 3 everywhere; p2p grows with hosts
        assert all(value < 3.0 for _, value in broadcast)
        assert p2p[-1][1] > p2p[0][1]
        # x-coordinates preserved
        assert [h for h, _ in broadcast] == hosts


class TestSpreading:
    def test_sir_monotone_in_probability(self, social):
        seeds = [0, 1]
        low = sir_spread(social, seeds, infect_prob=0.02, seed=4)
        high = sir_spread(social, seeds, infect_prob=0.5, seed=4)
        assert high >= low

    def test_sir_zero_probability_only_seeds(self, social):
        assert sir_spread(social, [0, 1, 2], infect_prob=0.0, seed=1) == 3

    def test_sir_ignores_unknown_seeds(self, social):
        assert sir_spread(social, [10**9], infect_prob=0.5, seed=1) == 0

    def test_high_core_seeds_spread_at_least_random(self, social):
        """The paper's premise (Kitsak et al.): high-coreness seeds are
        better spreaders than random ones."""
        truth = batagelj_zaversnik(social)
        by_core = sorted(truth, key=lambda u: -truth[u])[:5]
        random_seeds = [7, 77, 107, 177, 207]
        power = spreading_power(
            social,
            {"core": by_core, "random": random_seeds},
            infect_prob=0.05,
            trials=30,
            seed=3,
        )
        assert power["core"] >= power["random"]
