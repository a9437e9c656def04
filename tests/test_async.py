"""Tests for the asynchronous engine: correctness without synchrony.

The paper's system model (Section 2) only assumes reliable channels —
these tests are the experimental counterpart of the observation that
the safety/liveness proofs never use round synchrony.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import batagelj_zaversnik
from repro.core.one_to_one import (
    OneToOneConfig, build_node_processes, run_one_to_one,
)
from repro.errors import SimulationError
from repro.sim.async_engine import AsyncEngine
from repro.sim.node import Process

from tests.conftest import graphs


class TestKCoreUnderAsynchrony:
    @given(graphs(max_nodes=24), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_converges_to_exact_coreness(self, g, seed):
        result = run_one_to_one(g, OneToOneConfig(engine="async", seed=seed))
        assert result.coreness == batagelj_zaversnik(g)

    @given(graphs(max_nodes=20), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_duplicated_deliveries_converge_to_exact_coreness(self, g, seed):
        """Min-folding makes redelivery harmless on any graph."""
        processes = build_node_processes(g, optimize_sends=True)
        AsyncEngine(processes, seed=seed, duplicate_prob=0.3).run()
        coreness = {pid: p.core for pid, p in processes.items()}
        assert coreness == batagelj_zaversnik(g)

    def test_heavy_tailed_latency(self, small_social):
        """Occasional 20-period delays (non-FIFO reordering) are fine."""

        def latency(rng):
            return 20.0 if rng.random() < 0.05 else 0.2 + rng.random()

        result = run_one_to_one(
            small_social,
            OneToOneConfig(engine="async", seed=3, latency=latency),
        )
        assert result.coreness == batagelj_zaversnik(small_social)

    def test_near_instant_latency(self, small_social):
        result = run_one_to_one(
            small_social,
            OneToOneConfig(engine="async", seed=3, latency=lambda rng: 0.001),
        )
        assert result.coreness == batagelj_zaversnik(small_social)

    def test_message_count_comparable_to_round_engine(self, small_social):
        """Asynchrony may cost extra intermediate estimates but stays
        within the Corollary-2 total bound."""
        from repro.core.theory import total_message_bound

        result = run_one_to_one(
            small_social, OneToOneConfig(engine="async", seed=1)
        )
        assert result.stats.total_messages <= total_message_bound(small_social)


class TestAsyncEngineMechanics:
    class Ping(Process):
        def __init__(self, pid, peer):
            super().__init__(pid)
            self.peer = peer
            self.got = []

        def on_init(self, ctx):
            if self.pid == 0:
                ctx.send(self.peer, "ping")

        def on_messages(self, ctx, messages):
            self.got.extend(m for _, m in messages)

    def test_delivery(self):
        a = self.Ping(0, 1)
        b = self.Ping(1, 0)
        engine = AsyncEngine({0: a, 1: b}, seed=1)
        stats = engine.run()
        assert b.got == ["ping"]
        assert stats.total_messages == 1

    def test_send_to_unknown_raises(self):
        bad = self.Ping(0, 42)
        with pytest.raises(SimulationError):
            AsyncEngine({0: bad}, seed=1).run()

    def test_negative_latency_rejected(self):
        bad = self.Ping(0, 1)
        peer = self.Ping(1, 0)
        engine = AsyncEngine(
            {0: bad, 1: peer}, seed=1, latency=lambda rng: -1.0
        )
        with pytest.raises(SimulationError):
            engine.run()

    def test_invalid_period_rejected(self):
        with pytest.raises(SimulationError):
            AsyncEngine({}, period=0.0)

    def test_quiesces_without_traffic(self):
        silent = {i: Process(i) for i in range(3)}
        stats = AsyncEngine(silent, seed=0).run()
        assert stats.total_messages == 0

    def test_invalid_duplicate_prob_rejected(self):
        with pytest.raises(SimulationError):
            AsyncEngine({}, duplicate_prob=1.0)

    def test_duplication_fault_injection_exact(self, small_social):
        """Reliable channels may retransmit; min-folding makes the
        protocol idempotent, so heavy duplication must not change the
        result (failure-injection invariant)."""
        from repro.baselines import batagelj_zaversnik
        from repro.core.one_to_one import build_node_processes

        processes = build_node_processes(small_social, optimize_sends=True)
        stats = AsyncEngine(processes, seed=5, duplicate_prob=0.4).run()
        coreness = {pid: p.core for pid, p in processes.items()}
        assert coreness == batagelj_zaversnik(small_social)
        # duplicated deliveries do not inflate the *send* counter
        assert stats.total_messages < 10 * small_social.num_edges

    def test_deterministic_for_seed(self, path6):
        a = run_one_to_one(path6, OneToOneConfig(engine="async", seed=11))
        b = run_one_to_one(path6, OneToOneConfig(engine="async", seed=11))
        assert a.stats.total_messages == b.stats.total_messages
