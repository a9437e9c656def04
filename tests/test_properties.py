"""Run-level property tests — the DESIGN.md §6 invariants.

Unoptimised runs keep the paper's round and message bounds, estimates
stay safe and monotone in every round, results satisfy the locality
theorem and the decomposition semantics, and the answer does not
depend on the schedule or the placement. Agreement across
algorithms is the replay harness's (``tests/replay.py``):
:func:`tests.replay.check` holds every leg ``tests/test_replay.py``
fuzzes to BZ (and every one-to-one leg to the bounds), and
``tests/test_baselines.py::TestOracleAgreement`` holds BZ, networkx and
peeling to one answer.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import batagelj_zaversnik
from repro.core import theory
from repro.core.one_to_many import OneToManyConfig, run_one_to_many
from repro.core.one_to_one import OneToOneConfig, run_one_to_one
from repro.graph.graph import Graph

from tests.conftest import graphs
from tests.replay import check


class TestRunInvariants:
    @given(graphs(max_nodes=30))
    @settings(max_examples=30, deadline=None)
    def test_round_bounds(self, g: Graph):
        """Invariant 5: Theorems 4/5, Corollary 1 on every lockstep run
        (:func:`tests.replay.check` asserts them)."""
        check("one-to-one", g, mode="lockstep", optimize_sends=False)

    @given(graphs(max_nodes=30), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_message_bounds(self, g: Graph, seed: int):
        """Invariant 6: Corollary 2 on every unoptimised run, here under
        the randomized schedule (:func:`tests.replay.check`)."""
        check("one-to-one", g, mode="peersim", optimize_sends=False, seed=seed)

    @given(graphs(max_nodes=24), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_safety_every_round(self, g: Graph, seed: int):
        """Invariant 2: estimates never drop below the true coreness."""
        from repro.core.one_to_one import build_node_processes
        from repro.sim.engine import RoundEngine

        truth = batagelj_zaversnik(g)
        violations: list[tuple[int, int]] = []

        def check(round_number, engine):
            for pid, process in engine.processes.items():
                if process.core < truth[pid]:
                    violations.append((round_number, pid))

        processes = build_node_processes(g, optimize_sends=True)
        RoundEngine(processes, seed=seed, observers=[check]).run()
        assert violations == []

    @given(graphs(max_nodes=24), st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_monotone_estimates(self, g: Graph, seed: int):
        """Invariant 3: per-node estimates never increase."""
        from repro.core.one_to_one import build_node_processes
        from repro.sim.engine import RoundEngine

        last: dict[int, int] = {}
        violations: list[int] = []

        def check(round_number, engine):
            for pid, process in engine.processes.items():
                if pid in last and process.core > last[pid]:
                    violations.append(pid)
                last[pid] = process.core

        processes = build_node_processes(g, optimize_sends=True)
        RoundEngine(processes, seed=seed, observers=[check]).run()
        assert violations == []

    @given(graphs(max_nodes=26))
    @settings(max_examples=30, deadline=None)
    def test_locality_of_final_values(self, g: Graph):
        """Invariant 4: the result satisfies Theorem 1 at every node."""
        result = run_one_to_one(g, OneToOneConfig(seed=0))
        assert theory.check_locality(g, result.coreness)

    @given(graphs(max_nodes=20))
    @settings(max_examples=20, deadline=None)
    def test_full_decomposition_semantics(self, g: Graph):
        """Invariant 10: every k-core is the maximal min-degree-k
        subgraph."""
        result = run_one_to_one(g, OneToOneConfig(seed=1))
        assert theory.verify_decomposition(g, result.coreness)


class TestScheduleIndependence:
    @given(graphs(max_nodes=24), st.lists(st.integers(0, 2**31), min_size=3, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_any_schedule_same_answer(self, g: Graph, seeds):
        """The result must not depend on the randomized activation order
        (only the round/message counts may)."""
        results = {
            tuple(sorted(run_one_to_one(g, OneToOneConfig(seed=s)).coreness.items()))
            for s in seeds
        }
        assert len(results) == 1

    @given(graphs(max_nodes=22), st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_assignment_independence(self, g: Graph, seed: int):
        """One-to-many: the answer must not depend on node placement."""
        results = set()
        for policy in ("modulo", "block", "random"):
            run = run_one_to_many(
                g,
                OneToManyConfig(num_hosts=4, policy=policy, seed=seed),
            )
            results.add(tuple(sorted(run.coreness.items())))
        assert len(results) == 1
