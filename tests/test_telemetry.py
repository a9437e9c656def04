"""The telemetry layer is a pure observer of every engine.

Three contracts, in increasing order of teeth:

1. **Disabled costs nothing** — :class:`~repro.telemetry.NullTracer`
   hands back one module-level no-op singleton, allocating no span
   objects, event tuples or buffers, so the replay hot loops keep their
   tracing calls unconditionally.
2. **Enabled changes nothing** — the equivalence grid reruns flat and
   mp (fork *and* spawn) configurations with tracing on and asserts
   bit-identical coreness, round counts, per-round send counts and
   ``estimates_sent`` against the untraced run.
3. **The timeline itself is deterministic** — the mp fleet merge is
   coordinator lane first, workers in ascending host order, never
   timestamp-sorted; :func:`~repro.telemetry.lane_sequence` (everything
   but the timestamps) is pinned equal across repeated runs and across
   the fork/spawn start methods.

Plus the satellites riding on the same layer: the typed metrics
registry behind ``stats.extra``, the exporters (Chrome trace-event
JSON, JSONL, summary table), the one per-round trace lane (a
:class:`~repro.sim.tracing.TraceRecorder` on the object engine, hosts
included, which the flat and mp rows refuse) and the
``SimulationStats`` dict round-trip.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.baselines import batagelj_zaversnik
from repro.core.api import decompose
from repro.core.one_to_many import OneToManyConfig, run_one_to_many
from repro.core.one_to_one import OneToOneConfig, run_one_to_one
from repro.errors import ConfigurationError, TelemetryError
from repro.graph import generators as gen
from repro.sim.metrics import SimulationStats
from repro.sim.tracing import TraceRecorder
from repro.telemetry import (
    METRICS,
    NULL_TRACER,
    NullTracer,
    Tracer,
    chrome_trace_events,
    lane_sequence,
    merge_worker_buffers,
    resolve_tracer,
    run_tracer,
    schema_rows,
    summary_table,
    validate_extra,
    write_chrome_trace,
    write_jsonl,
)


def graph():
    return gen.preferential_attachment_graph(60, 3, seed=7)


def _flat_many(g, **kw):
    return run_one_to_many(
        g, OneToManyConfig(engine="flat", mode="lockstep", seed=0, **kw)
    )


def _mp_many(g, start_method="fork", **kw):
    # the serialization-cost guard rightly flags test-sized fleets
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_one_to_many(
            g,
            OneToManyConfig(
                engine="mp", mode="lockstep", seed=0, num_hosts=3,
                mp_start_method=start_method, **kw,
            ),
        )


def assert_same_replay(a, b):
    """Bit-identity on everything the equivalence suites pin."""
    assert a.coreness == b.coreness
    assert a.stats.rounds_executed == b.stats.rounds_executed
    assert a.stats.execution_time == b.stats.execution_time
    assert a.stats.sends_per_round == b.stats.sends_per_round
    assert a.stats.total_messages == b.stats.total_messages
    assert a.stats.sent_per_process == b.stats.sent_per_process
    for key in ("estimates_sent_total", "estimates_sent_per_node"):
        if key in a.stats.extra or key in b.stats.extra:
            assert a.stats.extra[key] == b.stats.extra[key]


class TestNullTracerFastPath:
    def test_span_returns_the_module_singleton(self):
        tracer = NullTracer()
        first = tracer.span("round", round=1)
        # same object every call — the disabled path allocates nothing
        assert tracer.span("kernel.cascade") is first
        assert NULL_TRACER.span("anything") is first

    def test_null_span_is_inert(self):
        with NULL_TRACER.span("round", round=3) as span:
            span.note(sends=12)
        NULL_TRACER.instant("worker.lost", host=1)
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.buffers() == []
        assert NULL_TRACER.enabled is False

    def test_resolve_tracer_mapping(self):
        assert resolve_tracer(None) is NULL_TRACER
        assert resolve_tracer(False) is NULL_TRACER
        built = resolve_tracer(True, lane="coordinator")
        assert isinstance(built, Tracer) and built.lane == "coordinator"
        assert resolve_tracer(built) is built
        assert resolve_tracer(NULL_TRACER) is NULL_TRACER
        with pytest.raises(ConfigurationError, match="telemetry"):
            resolve_tracer("yes")

    def test_trace_out_implies_tracing(self):
        assert run_tracer(None, None) is NULL_TRACER
        assert run_tracer(False, "trace.json").enabled
        handed = Tracer(lane="main")
        assert run_tracer(handed, "trace.json") is handed


class TestTracerRecording:
    def test_span_records_complete_event_with_noted_args(self):
        tracer = Tracer(lane="main")
        with tracer.span("round", round=1) as span:
            span.note(sends=5)
        tracer.instant("worker.lost", host=2)
        events = tracer.events()
        assert [(k, n, a) for k, n, _t0, _t1, a in events] == [
            ("X", "round", {"round": 1, "sends": 5}),
            ("i", "worker.lost", {"host": 2}),
        ]
        (_, _, t0, t1, _), (_, _, i0, i1, _) = events
        assert t1 >= t0 and i1 == i0

    def test_buffers_are_own_lane_then_adoption_order(self):
        tracer = Tracer(lane="coordinator")
        merge_worker_buffers(
            tracer, {2: [("X", "round", 0.0, 1.0, None)], 0: [], 1: []}
        )
        lanes = [lane for lane, _events in tracer.buffers()]
        # ascending host order regardless of dict insertion order
        assert lanes == ["coordinator", "worker-0", "worker-1", "worker-2"]

    def test_lane_sequence_drops_only_timestamps(self):
        tracer = Tracer(lane="main")
        with tracer.span("round", round=1):
            pass
        assert lane_sequence(tracer.buffers()) == [
            ("main", "X", "round", {"round": 1})
        ]

    def test_merge_into_disabled_tracer_is_a_noop(self):
        merge_worker_buffers(NULL_TRACER, {0: [("X", "x", 0.0, 1.0, None)]})
        assert NULL_TRACER.buffers() == []


class TestRegistry:
    def test_registered_extra_passes(self):
        validate_extra(
            {
                "estimates_sent_total": 42,
                "estimates_sent_per_node": 1.5,
                "start_method": "fork",
                "resumed_from_round": None,
                "pipe_bytes_per_round": [10, 20],
                "recoveries": [{"host": 1, "round": 3}],
            }
        )

    def test_undeclared_key_rejected(self):
        with pytest.raises(TelemetryError, match="not a registered metric"):
            validate_extra({"estimates_snet_total": 42})  # the typo case

    def test_ill_typed_value_rejected(self):
        with pytest.raises(TelemetryError, match="registered type"):
            validate_extra({"estimates_sent_total": "lots"})
        with pytest.raises(TelemetryError, match="registered type"):
            validate_extra({"pipe_bytes_per_round": [1, "two"]})
        # bools are not ints in the metrics vocabulary
        with pytest.raises(TelemetryError, match="registered type"):
            validate_extra({"num_hosts": True})

    def test_schema_rows_cover_the_registry(self):
        rows = schema_rows()
        assert [name for name, *_rest in rows] == list(METRICS)
        for name, kind, type_, unit, doc in rows:
            assert kind in ("counter", "gauge", "histogram", "event")
            assert type_ and unit and doc

    def test_every_runner_extra_is_registered(self):
        # the live engines must only emit declared keys: a traced run
        # validates, so an unregistered key would fail here first
        result = _flat_many(graph())
        validate_extra(result.stats.extra)


class TestExporters:
    def _buffers(self):
        tracer = Tracer(lane="coordinator")
        with tracer.span("round", round=1) as span:
            span.note(sends=3)
        tracer.instant("worker.lost", host=0)
        tracer.adopt_lane("worker-0", tracer.events())
        return tracer.buffers()

    def test_chrome_trace_events_shape(self):
        events = chrome_trace_events(self._buffers())
        meta = [e for e in events if e["ph"] == "M"]
        assert [
            e["args"]["name"] for e in meta if e["name"] == "process_name"
        ] == ["coordinator", "worker-0"]
        spans = [e for e in events if e["ph"] == "X"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in spans)
        instants = [e for e in events if e["ph"] == "i"]
        assert all(e["s"] == "t" and "dur" not in e for e in instants)

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), self._buffers())
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"} == {
            "round"
        }

    def test_write_jsonl_one_event_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(str(path), self._buffers())
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert [(ln["lane"], ln["kind"], ln["name"]) for ln in lines] == [
            ("coordinator", "X", "round"),
            ("coordinator", "i", "worker.lost"),
            ("worker-0", "X", "round"),
            ("worker-0", "i", "worker.lost"),
        ]

    def test_summary_table_aggregates_per_lane_and_span(self):
        table = summary_table(self._buffers())
        assert "coordinator" in table and "worker-0" in table
        assert "round" in table and "mean ms" in table


class TestTracingOnEquivalence:
    """Contract 2: enabling telemetry perturbs nothing, anywhere."""

    def test_one_to_one_flat(self):
        g = graph()
        base = run_one_to_one(
            g, OneToOneConfig(engine="flat", mode="lockstep", seed=0)
        )
        traced = run_one_to_one(
            g,
            OneToOneConfig(
                engine="flat", mode="lockstep", seed=0, telemetry=True
            ),
        )
        assert_same_replay(traced, base)

    def test_one_to_many_object(self):
        g = graph()
        base = run_one_to_many(g, OneToManyConfig(seed=0))
        traced = run_one_to_many(g, OneToManyConfig(seed=0, telemetry=True))
        assert_same_replay(traced, base)

    @pytest.mark.parametrize("communication", ("broadcast", "p2p"))
    def test_one_to_many_flat(self, communication):
        g = graph()
        base = _flat_many(g, communication=communication)
        traced = _flat_many(
            g, communication=communication, telemetry=True
        )
        assert_same_replay(traced, base)
        assert traced.coreness == batagelj_zaversnik(g)

    @pytest.mark.parametrize("communication", ("broadcast", "p2p"))
    def test_one_to_many_mp_fork(self, communication):
        g = graph()
        base = _mp_many(g, communication=communication)
        traced = _mp_many(g, communication=communication, telemetry=True)
        assert_same_replay(traced, base)

    def test_one_to_many_mp_spawn(self):
        g = graph()
        base = _mp_many(g, start_method="spawn")
        traced = _mp_many(g, start_method="spawn", telemetry=True)
        assert_same_replay(traced, base)

    def test_async_engine_rejects_telemetry_loudly(self):
        with pytest.raises(ConfigurationError, match="telemetry"):
            run_one_to_many(
                graph(), OneToManyConfig(engine="async", telemetry=True)
            )


class TestMpFleetTimeline:
    """Contract 3: the merged timeline is a pure function of the replay."""

    def _traced_run(self, start_method="fork"):
        tracer = Tracer(lane="coordinator")
        _mp_many(graph(), start_method=start_method, telemetry=tracer)
        return tracer

    def test_per_worker_lanes_with_full_span_taxonomy(self):
        tracer = self._traced_run()
        buffers = dict(tracer.buffers())
        assert list(buffers) == [
            "coordinator", "worker-0", "worker-1", "worker-2",
        ]
        coord_spans = {ev[1] for ev in buffers["coordinator"]}
        assert {"spawn", "round", "barrier.recv", "gather.telemetry",
                "gather.results"} <= coord_spans
        for host in range(3):
            worker_spans = {ev[1] for ev in buffers[f"worker-{host}"]}
            assert {"round", "emit.serialize", "kernel.seed_shard",
                    "kernel.cascade", "mail.pull"} <= worker_spans

    def test_chrome_trace_has_one_process_row_per_lane(self, tmp_path):
        tracer = self._traced_run()
        path = tmp_path / "fleet.json"
        write_chrome_trace(str(path), tracer.buffers())
        doc = json.loads(path.read_text())
        names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert names == ["coordinator", "worker-0", "worker-1", "worker-2"]
        assert any(
            e["ph"] == "X" and e["name"] == "round" and e["pid"] > 0
            for e in doc["traceEvents"]
        )

    def test_checkpoint_spans_land_in_their_lanes(self, tmp_path):
        from repro.sim.checkpoint import CheckpointPolicy

        tracer = Tracer(lane="coordinator")
        _mp_many(
            graph(),
            telemetry=tracer,
            checkpoint=CheckpointPolicy(
                every_n_rounds=2, dir=str(tmp_path)
            ),
        )
        buffers = dict(tracer.buffers())
        coord = {ev[1] for ev in buffers["coordinator"]}
        assert "checkpoint.commit" in coord
        workers = {ev[1] for ev in buffers["worker-0"]}
        assert "checkpoint.snapshot" in workers

    def test_merge_order_is_deterministic_across_runs(self):
        first = lane_sequence(self._traced_run().buffers())
        second = lane_sequence(self._traced_run().buffers())
        # everything but the timestamps — lanes, span names, payloads —
        # must be identical between two runs of the same replay
        assert first == second

    def test_merge_order_matches_across_start_methods(self):
        fork = lane_sequence(self._traced_run("fork").buffers())
        spawn = lane_sequence(self._traced_run("spawn").buffers())
        assert fork == spawn


class TestTraceLane:
    """A per-round trace runs on the object engine, hosts included; the
    flat and mp rows replay it round for round and take no observers."""

    def test_object_one_to_many_trace(self):
        g = graph()
        rec = TraceRecorder(reference=batagelj_zaversnik(g))
        result = run_one_to_many(
            g,
            OneToManyConfig(
                mode="lockstep", num_hosts=3, seed=0, observers=[rec]
            ),
        )
        assert rec.snapshots[0].estimates_changed == g.num_nodes
        assert [
            snap.messages_sent for snap in rec.snapshots
        ] == result.stats.sends_per_round
        assert rec.snapshots[-1].total_error == 0

    @pytest.mark.parametrize(
        "algorithm", ["one-to-one-flat", "one-to-many-flat", "one-to-many-mp"]
    )
    def test_fast_rows_reject_a_recorder(self, algorithm):
        with pytest.raises(ConfigurationError, match="observers") as info:
            decompose(graph(), algorithm, observers=[TraceRecorder()])
        assert "'round'" in str(info.value)


class TestStatsRoundTrip:
    def _stats(self):
        return SimulationStats(
            rounds_executed=7,
            execution_time=6,
            total_messages=120,
            sent_per_process={0: 70, 3: 50},
            sends_per_round=[60, 40, 20, 0],
            converged=True,
            wall_seconds=0.25,
            extra={"estimates_sent_total": 200, "start_method": "fork"},
        )

    def test_round_trips_through_json(self):
        stats = self._stats()
        clone = SimulationStats.from_dict(
            json.loads(json.dumps(stats.to_dict()))
        )
        # JSON stringifies the per-process keys; from_dict restores ints
        assert clone == stats

    def test_summary_includes_wall_seconds(self):
        summary = self._stats().summary()
        assert "wall=0.250s" in summary and "converged=True" in summary
