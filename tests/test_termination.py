"""Tests for the three termination-detection mechanisms (Section 3.3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import batagelj_zaversnik
from repro.core.one_to_one import OneToOneConfig, run_one_to_one
from repro.core.termination import (
    run_fixed_rounds,
    run_with_centralized_termination,
    run_with_gossip_termination,
)
from repro.errors import ConfigurationError
from repro.graph import generators as gen

from tests.conftest import graphs


@pytest.fixture(scope="module")
def social():
    return gen.powerlaw_cluster_graph(150, 3, 0.3, seed=31)


@pytest.fixture(scope="module")
def social_truth(social):
    return batagelj_zaversnik(social)


class TestCentralized:
    def test_result_exact(self, social, social_truth):
        report = run_with_centralized_termination(
            social, OneToOneConfig(seed=2)
        )
        assert report.result.coreness == social_truth

    def test_detection_happens_after_convergence(self, social):
        plain = run_one_to_one(social, OneToOneConfig(seed=2))
        report = run_with_centralized_termination(
            social, OneToOneConfig(seed=2)
        )
        # STOP is declared strictly after the run's own last activity,
        # and within the quiet-window worst case of it
        assert report.detected_round > report.last_activity_round
        assert report.detected_round <= report.last_activity_round + 6
        # and the monitored run's convergence is in the same ballpark as
        # an unmonitored run (schedules differ, so allow slack)
        assert abs(
            report.last_activity_round - plain.stats.execution_time
        ) <= max(6, plain.stats.execution_time)

    def test_control_traffic_counted(self, social):
        report = run_with_centralized_termination(
            social, OneToOneConfig(seed=2)
        )
        # every node reports every round: control >= N * rounds-ish
        assert report.control_messages > social.num_nodes

    def test_works_on_lockstep(self, social, social_truth):
        report = run_with_centralized_termination(
            social, OneToOneConfig(mode="lockstep")
        )
        assert report.result.coreness == social_truth

    def test_tiny_graphs(self):
        for graph in (gen.path_graph(2), gen.clique_graph(3)):
            report = run_with_centralized_termination(graph)
            assert report.result.coreness == batagelj_zaversnik(graph)
            assert report.detected_round > 0


class TestGossip:
    def test_result_exact_with_threshold(self, social, social_truth):
        report = run_with_gossip_termination(
            social, threshold=12, config=OneToOneConfig(seed=4)
        )
        assert report.result.coreness == social_truth
        assert report.detected_round > 0

    def test_all_nodes_eventually_detect(self, social):
        report = run_with_gossip_termination(
            social, threshold=8, config=OneToOneConfig(seed=4)
        )
        # detected_round is the max across nodes; a positive value means
        # every node declared (engine only quiesces after all go silent)
        assert report.detected_round > 0

    def test_small_threshold_still_correct_values(self, social, social_truth):
        """Early detection never corrupts estimates (detection is
        advisory; the protocol keeps running underneath)."""
        report = run_with_gossip_termination(
            social, threshold=1, config=OneToOneConfig(seed=4)
        )
        assert report.result.coreness == social_truth

    def test_invalid_threshold(self, social):
        with pytest.raises(ConfigurationError):
            run_with_gossip_termination(social, threshold=0)

    def test_fanout_two_detects_faster_or_equal(self, social):
        slow = run_with_gossip_termination(
            social, threshold=10, config=OneToOneConfig(seed=6), fanout=1
        )
        fast = run_with_gossip_termination(
            social, threshold=10, config=OneToOneConfig(seed=6), fanout=2
        )
        assert fast.detected_round <= slow.detected_round + 3


class TestGeneratedGraphs:
    @given(graphs(max_nodes=20), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_both_detectors_return_exact_coreness(self, g, seed):
        """Detection is advisory: a run under either in-band detector
        still ends at BZ's coreness."""
        config = OneToOneConfig(seed=seed)
        for report in (run_with_centralized_termination(g, config),
                       run_with_gossip_termination(g, 6, config)):
            assert report.result.coreness == batagelj_zaversnik(g)


class TestFixedRounds:
    def test_estimates_upper_bound_truth(self, social, social_truth):
        result = run_fixed_rounds(social, rounds=3, config=OneToOneConfig(seed=1))
        assert all(
            result.coreness[u] >= social_truth[u] for u in social_truth
        )

    def test_error_decreases_with_more_rounds(self, social, social_truth):
        def total_error(rounds: int) -> int:
            result = run_fixed_rounds(
                social, rounds=rounds, config=OneToOneConfig(seed=1)
            )
            return sum(
                result.coreness[u] - social_truth[u] for u in social_truth
            )

        errors = [total_error(r) for r in (2, 4, 8, 16)]
        assert errors[0] >= errors[1] >= errors[2] >= errors[3]
        assert errors[-1] == 0  # converged well before 16 rounds

    def test_invalid_rounds(self, social):
        with pytest.raises(ConfigurationError):
            run_fixed_rounds(social, rounds=0)


#: One off-default value per OneToOneConfig field the detectors do not
#: read; each would otherwise be silently ignored.
IGNORED = {
    "engine": "flat",
    "backend": "numpy",
    "fixed_rounds": 3,
    "observers": (lambda rnd, engine: None,),
    "latency": lambda rng: 1.0,
    "async_max_time": 10.0,
    "telemetry": True,
    "trace_out": "trace.json",
}


class TestIgnoredFieldsRejected:
    @pytest.mark.parametrize("field", sorted(IGNORED))
    @pytest.mark.parametrize(
        "wrapper",
        (
            run_with_centralized_termination,
            lambda g, config: run_with_gossip_termination(g, 4, config),
        ),
        ids=("centralized", "gossip"),
    )
    def test_rejected(self, wrapper, field):
        config = OneToOneConfig(**{field: IGNORED[field]})
        with pytest.raises(ConfigurationError, match=field):
            wrapper(gen.worst_case_graph(12), config)

    def test_read_fields_accepted(self):
        config = OneToOneConfig(
            mode="lockstep", optimize_sends=False, seed=2, max_rounds=500,
            strict=False, observers=[], telemetry=False,
        )
        g = gen.worst_case_graph(12)
        truth = batagelj_zaversnik(g)
        assert run_with_centralized_termination(g, config).result.coreness == truth
        assert run_with_gossip_termination(g, 30, config).result.coreness == truth
