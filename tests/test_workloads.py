"""Tests for churn trace generation and replay."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graph import generators as gen
from repro.streaming import DynamicKCore
from repro.workloads import generate_churn_trace, replay_trace


@pytest.fixture()
def overlay():
    return gen.erdos_renyi_graph(40, 0.12, seed=6)


class TestGeneration:
    def test_deterministic(self, overlay):
        a = generate_churn_trace(overlay, duration=50, seed=3)
        b = generate_churn_trace(overlay, duration=50, seed=3)
        assert a.events == b.events

    def test_different_seed_differs(self, overlay):
        a = generate_churn_trace(overlay, duration=50, seed=3)
        b = generate_churn_trace(overlay, duration=50, seed=4)
        assert a.events != b.events

    def test_events_time_ordered(self, overlay):
        trace = generate_churn_trace(overlay, duration=80, seed=1)
        times = [event.time for event in trace]
        assert times == sorted(times)
        assert all(t <= 80 for t in times)

    def test_event_mix(self, overlay):
        trace = generate_churn_trace(
            overlay, duration=200, join_rate=1.0, mean_session=30,
            rewire_rate=0.5, seed=2,
        )
        counts = trace.counts()
        assert counts.get("join", 0) > 0
        assert counts.get("leave", 0) > 0
        assert counts.get("link", 0) == counts.get("unlink", 0)

    def test_invalid_parameters(self, overlay):
        with pytest.raises(ConfigurationError):
            generate_churn_trace(overlay, duration=0)
        with pytest.raises(ConfigurationError):
            generate_churn_trace(overlay, mean_session=0)
        with pytest.raises(ConfigurationError):
            generate_churn_trace(overlay, contacts_per_join=0)

    def test_initial_graph_untouched(self, overlay):
        nodes_before = set(overlay.nodes())
        edges_before = set(overlay.edges())
        generate_churn_trace(overlay, duration=100, seed=5)
        assert set(overlay.nodes()) == nodes_before
        assert set(overlay.edges()) == edges_before


class TestReplay:
    def test_replay_is_exact(self, overlay):
        trace = generate_churn_trace(overlay, duration=60, seed=7)
        engine = replay_trace(trace)
        assert engine.verify()

    def test_replay_with_verification_hook(self, overlay):
        trace = generate_churn_trace(overlay, duration=40, seed=8)
        engine = replay_trace(trace, verify_every=10)
        assert engine.verify()

    def test_replay_onto_existing_engine(self, overlay):
        trace = generate_churn_trace(overlay, duration=30, seed=9)
        engine = DynamicKCore(overlay)
        out = replay_trace(trace, engine=engine)
        assert out is engine
        assert engine.verify()

    @given(st.integers(0, 2**31))
    @settings(max_examples=12, deadline=None)
    def test_fuzzed_traces_never_diverge(self, seed):
        overlay = gen.erdos_renyi_graph(25, 0.15, seed=seed)
        trace = generate_churn_trace(
            overlay, duration=120, join_rate=0.8, mean_session=40,
            rewire_rate=0.6, seed=seed,
        )
        engine = replay_trace(trace)
        assert engine.verify()

    @pytest.mark.parametrize(
        "option, error",
        [({"backend": "stdlib"}, TypeError), ({"telemetry": True}, ConfigurationError)],
        ids=["backend", "telemetry"],
    )
    @pytest.mark.parametrize("prebuilt", [False, True], ids=["object", "prebuilt"])
    def test_options_no_engine_takes_are_rejected(self, overlay, option, error, prebuilt):
        # only a flat engine built by replay_trace takes a tracer; the
        # object oracle and a prebuilt engine would drop it. No engine
        # takes a kernel backend, so replay_trace has no such keyword
        from repro.streaming import FlatDynamicKCore

        trace = generate_churn_trace(overlay, duration=20, seed=2)
        engine = FlatDynamicKCore(trace.initial) if prebuilt else "object"
        (name,) = option
        with pytest.raises(error, match=f"'{name}'"):
            replay_trace(trace, engine=engine, **option)

    def test_cli_rejects_telemetry_on_the_object_engine(self, tmp_path, usage_error):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n2 3\n")
        usage_error(
            ["churn", "--edges", str(edges), "--duration", "5",
             "--engine", "object", "--telemetry"],
            match="telemetry",
        )
