"""Shared-memory estimate transport + cut-aware refined placement.

Two contracts, one test module:

1. ``transport="shm"`` on the mp engine
   (:mod:`repro.sim.shm_transport`) is an **exact replay** of
   ``FlatOneToManyEngine(mode="lockstep")`` — coreness, rounds,
   per-round sends, per-host messages, Figure-5 ``estimates_sent`` —
   with **zero pickled bytes on the estimate hot path**
   (``pipe_bytes_total == 0``), under both start methods, both kernel
   backends, scripted worker kills and whole-fleet checkpoint/resume —
   and every batch fits its ring, because ring capacities are exact
   per-round upper bounds.

2. ``policy="refined"`` (:func:`repro.core.assignment.refine_assignment`)
   is a deterministic greedy cut reducer: the cut never increases, the
   5% load-slack cap holds, and — placement being invisible to the
   protocol's fixpoint — every per-node coreness stays bit-identical.

The acceptance grid runs the same 12 dataset families as
``tests/test_mp_engine.py`` under ``fork`` (cheap, identical
semantics); representative slices re-prove ``spawn`` and numpy.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import batagelj_zaversnik
from repro.core.assignment import assign, refine_assignment
from repro.core.one_to_many import (
    INFINITY_INT,
    OneToManyConfig,
    resume_from_checkpoint,
    run_one_to_many,
)
from repro.errors import ConfigurationError, SimulationError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.sharded import ShardedCSR
from repro.sim.checkpoint import CheckpointPolicy
from repro.sim.faults import Fault, FaultPlan
from repro.sim.host_step import HostStep
from repro.sim.kernels import numpy_available, resolve_backend
from repro.sim.mp_engine import MultiProcessOneToManyEngine
from repro.sim.shm_transport import (
    HEADER_WORDS,
    ShmLayout,
    attach_mailbox,
    build_shm_layout,
    create_segments,
)
from repro.telemetry import Tracer

from tests.conftest import graphs
from tests.test_flat_one_to_many_equivalence import COMMUNICATIONS, FAMILIES


def _flat(graph: Graph, **kw):
    return run_one_to_many(
        graph, OneToManyConfig(engine="flat", mode="lockstep", **kw)
    )


def _shm(graph: Graph, start_method: str = "fork", **kw):
    # the serialization-cost guard rightly flags every test-sized run
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_one_to_many(
            graph,
            OneToManyConfig(
                engine="mp", mode="lockstep", mp_transport="shm",
                mp_start_method=start_method, **kw,
            ),
        )


def assert_shm_replays_flat(
    graph: Graph, start_method: str = "fork", **kw
) -> None:
    flat = _flat(graph, **kw)
    shm = _shm(graph, start_method=start_method, **kw)
    assert shm.coreness == flat.coreness
    assert shm.coreness == batagelj_zaversnik(graph)
    sf, sm = flat.stats, shm.stats
    assert sm.rounds_executed == sf.rounds_executed
    assert sm.execution_time == sf.execution_time
    assert sm.sends_per_round == sf.sends_per_round
    assert sm.total_messages == sf.total_messages
    assert sm.sent_per_process == sf.sent_per_process
    assert sm.converged == sf.converged
    assert sm.extra["estimates_sent_total"] == sf.extra["estimates_sent_total"]
    assert sm.extra["cut_edges"] == sf.extra["cut_edges"]
    # the whole point: ring capacities are exact upper bounds, so every
    # batch lands in a ring and nothing is pickled in flight
    assert sm.extra["transport"] == "shm"
    assert sm.extra["pipe_bytes_total"] == 0
    if sm.extra["estimates_sent_total"]:
        assert sm.extra["shm_bytes_total"] > 0
    assert sum(sm.extra["shm_bytes_per_round"]) == sm.extra["shm_bytes_total"]


class TestLayout:
    """Ring capacities come straight from the partition's cut bounds."""

    def _sharded(self, hosts=3):
        g = gen.preferential_attachment_graph(120, 3, seed=2)
        return g, ShardedCSR(CSRGraph.from_graph(g), assign(g, hosts))

    def test_capacity_counts_ext_slots_per_sender(self):
        _, sharded = self._sharded()
        layout = build_shm_layout(sharded)
        for y, shard in enumerate(sharded.shards):
            expected: dict[int, int] = {}
            for x in shard.ext_host:
                expected[x] = expected.get(x, 0) + 1
            assert {x: cap for x, (_, _, cap) in layout.regions[y].items()} \
                == expected

    def test_parity_buffers_do_not_overlap(self):
        _, sharded = self._sharded()
        layout = build_shm_layout(sharded)
        for y, table in enumerate(layout.regions):
            spans = []
            for base0, base1, cap in table.values():
                width = HEADER_WORDS + 2 * cap
                spans += [(base0, base0 + width), (base1, base1 + width)]
            spans.sort()
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert end <= start
            if spans:
                assert spans[-1][1] <= layout.seg_words[y]

    def test_every_segment_is_mappable(self):
        _, sharded = self._sharded(hosts=64)  # most hosts own 1-2 nodes
        layout = build_shm_layout(sharded)
        assert all(nbytes >= 8 for nbytes in layout.seg_bytes)


class TestGrid:
    """The acceptance grid: 12 families × 2 communication policies,
    3 workers, shm transport, fork."""

    @pytest.mark.parametrize("communication", COMMUNICATIONS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_exact_replay_zero_pickle(self, family, communication):
        assert_shm_replays_flat(
            FAMILIES[family](),
            num_hosts=3,
            communication=communication,
            seed=0,
        )

    def test_exact_replay_shuffled_ids(self):
        assert_shm_replays_flat(
            FAMILIES["er"]().shuffled(seed=99),
            num_hosts=4,
            communication="p2p",
            seed=11,
        )


class TestSpawn:
    """Fresh-interpreter slice: what the CLI default actually runs."""

    @pytest.mark.parametrize("communication", COMMUNICATIONS)
    def test_exact_replay_spawn(self, communication):
        assert_shm_replays_flat(
            FAMILIES["ba"](),
            start_method="spawn",
            num_hosts=3,
            communication=communication,
            seed=0,
        )


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestNumpyBackend:
    """The vectorised ring primitives replay the stdlib ones exactly."""

    @pytest.mark.parametrize("communication", COMMUNICATIONS)
    def test_exact_replay_numpy(self, communication):
        assert_shm_replays_flat(
            FAMILIES["er"](),
            num_hosts=3,
            communication=communication,
            backend="numpy",
            seed=0,
        )

    def test_numpy_matches_stdlib_byte_counts(self):
        g = FAMILIES["ba"]()
        a = _shm(g, num_hosts=3, backend="stdlib")
        b = _shm(g, num_hosts=3, backend="numpy")
        assert b.coreness == a.coreness
        assert b.stats.extra["shm_bytes_total"] == \
            a.stats.extra["shm_bytes_total"]


def _engine(graph, hosts=4, **kw):
    sharded = ShardedCSR(CSRGraph.from_graph(graph), assign(graph, hosts))
    return sharded, MultiProcessOneToManyEngine(
        sharded, start_method="fork", **kw
    )


class TestRingCapacity:
    """Ring capacities are exact per-round upper bounds: the largest
    batch a host step can emit fits its ring under every placement and
    communication policy, and a batch that did not would fail loudly."""

    @given(
        graphs(min_nodes=1),
        st.integers(2, 6),
        st.sampled_from(("modulo", "refined")),
        st.sampled_from(
            (("broadcast", False), ("p2p", False), ("p2p", True))
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_emit_batches_fit_ring_capacity(self, g, hosts, policy, comm):
        communication, p2p_filter = comm
        sharded = ShardedCSR(
            CSRGraph.from_graph(g), assign(g, hosts, policy=policy)
        )
        layout = build_shm_layout(sharded)
        kb = resolve_backend("stdlib")
        for x, shard in enumerate(sharded.shards):
            step = HostStep(
                kb, shard, hosts, communication, p2p_filter, INFINITY_INT
            )
            out_slots: list[list[int]] = [[] for _ in range(hosts)]
            out_vals: list[list[int]] = [[] for _ in range(hosts)]
            # the worst case: every owned estimate at once, against
            # external estimates still at infinity (the filter passes
            # everything)
            dests = step.emit(step.init(), out_slots, out_vals)
            for y in dests:
                _, _, cap = layout.regions[y][x]
                assert len(out_slots[y]) == len(out_vals[y]) <= cap

    def test_undersized_ring_write_raises(self):
        cap = 2
        width = HEADER_WORDS + 2 * cap
        # two workers, one region each way, both deliberately too small
        # for a three-record batch
        layout = ShmLayout(
            [{1: (0, width, cap)}, {0: (0, width, cap)}],
            [2 * width, 2 * width],
        )
        segments = create_segments(layout)
        names = [seg.name for seg in segments]
        kb = resolve_backend("stdlib")
        sender = attach_mailbox(kb, layout, names, 0)
        receiver = attach_mailbox(kb, layout, names, 1)
        try:
            with pytest.raises(SimulationError, match="capacity"):
                sender.write(1, 2, [0, 1, 2], [5, 5, 5])
            # nothing was published: the receiver sees no batch
            assert receiver.read(2) == []
            assert sender.write(1, 2, [0, 1], [5, 5]) > 0
            assert receiver.read(2) == [(0, [0, 1], [5, 5])]
        finally:
            sender.detach()
            receiver.detach()
            for seg in segments:
                seg.close()
                seg.unlink()

    def test_exact_capacity_never_overflows(self):
        g = gen.preferential_attachment_graph(250, 3, seed=4)
        _, engine = _engine(g, transport="shm")
        engine.run()
        assert engine.pipe_bytes_total == 0
        assert engine.shm_bytes_total > 0


class TestRecovery:
    """The PR 6 fault-tolerance contract carries over to shm verbatim."""

    def _graph(self):
        return gen.preferential_attachment_graph(300, 3, seed=1)

    def _mp_fault(self, graph, plan, **kw):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return run_one_to_many(
                graph,
                OneToManyConfig(
                    engine="mp", mode="lockstep", num_hosts=4,
                    mp_start_method="fork", mp_transport="shm", **kw,
                ),
                fault_plan=plan,
            )

    @pytest.mark.parametrize("when", ("start", "after_emit"))
    @pytest.mark.parametrize("round", (1, 2, 3))
    def test_kill_mid_round_recovers_bit_identical(self, round, when):
        g = self._graph()
        flat = _flat(g, num_hosts=4)
        plan = FaultPlan([Fault.kill(1, round=round, when=when)])
        faulty = self._mp_fault(g, plan)
        assert faulty.coreness == flat.coreness
        sf, sr = faulty.stats, flat.stats
        assert sf.rounds_executed == sr.rounds_executed
        assert sf.sends_per_round == sr.sends_per_round
        assert sf.extra["estimates_sent_total"] == \
            sr.extra["estimates_sent_total"]
        assert len(sf.extra["recoveries"]) == 1

    def test_checkpoint_and_resume_keep_transport(self, tmp_path):
        g = self._graph()
        flat = _flat(g, num_hosts=4)
        dir = str(tmp_path / "ck")
        # truncate the first run mid-protocol, then resume the fleet
        truncated = _shm(
            g, num_hosts=4, fixed_rounds=3,
            checkpoint=CheckpointPolicy(every_n_rounds=2, dir=dir),
        )
        assert truncated.stats.rounds_executed == 3
        resumed = resume_from_checkpoint(dir, max_rounds=1_000_000,
                                         strict=True)
        assert resumed.coreness == flat.coreness
        assert resumed.stats.rounds_executed == flat.stats.rounds_executed
        assert resumed.stats.sends_per_round == flat.stats.sends_per_round
        # the manifest pins the transport: the resumed fleet is shm too
        assert resumed.stats.extra["transport"] == "shm"
        assert resumed.stats.extra["resumed_from_round"] == 2


class TestRefinedPlacement:
    """policy="refined": deterministic, cut-reducing, balance-capped,
    and invisible to the per-node answer."""

    @pytest.mark.parametrize("family", ("er", "ba"))
    def test_cut_strictly_drops_on_paper_families(self, family):
        g = FAMILIES[family]()
        base = assign(g, 4, policy="modulo")
        refined = assign(g, 4, policy="refined")
        assert refined.cut_edges(g) < base.cut_edges(g)

    @given(graphs(min_nodes=1), st.integers(2, 6))
    @settings(max_examples=50, deadline=None)
    def test_refine_never_increases_cut_and_respects_cap(self, g, hosts):
        base = assign(g, hosts, policy="modulo")
        refined = refine_assignment(g, base)
        assert refined.cut_edges(g) <= base.cut_edges(g)
        assert refined.policy == "refined"
        assert set(refined.host_of) == set(base.host_of)
        cap = -(-g.num_nodes * 105 // (100 * hosts))
        base_max = max(
            (len(v) for v in base.owned.values()), default=0
        )
        for nodes in refined.owned.values():
            # moves never push a host past the cap; a host the *base*
            # overfilled beyond it can only have drained
            assert len(nodes) <= max(cap, base_max)

    @given(graphs(min_nodes=1), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_refine_is_deterministic(self, g, hosts):
        base = assign(g, hosts, policy="modulo")
        assert refine_assignment(g, base).host_of == \
            refine_assignment(g, base).host_of

    def test_refined_mp_shm_replays_flat(self):
        assert_shm_replays_flat(
            FAMILIES["ba"](),
            num_hosts=4,
            policy="refined",
            communication="p2p",
            seed=0,
        )

    def test_refined_exports_cut_gauge(self):
        g = FAMILIES["er"]()
        res = _flat(g, num_hosts=4, policy="refined", telemetry=True)
        assert res.stats.extra["cut_edges_after_refine"] == \
            res.stats.extra["cut_edges"]

    def test_max_passes_validated(self):
        g = gen.path_graph(6)
        with pytest.raises(ConfigurationError, match="max_passes"):
            refine_assignment(g, assign(g, 2), max_passes=0)


class TestSpans:
    """The shm hot path is visible in the fleet timeline."""

    def test_shm_spans_in_worker_lanes(self):
        tracer = Tracer(lane="coordinator")
        _shm(
            gen.preferential_attachment_graph(200, 3, seed=5),
            num_hosts=3, telemetry=tracer,
        )
        buffers = dict(tracer.buffers())
        for host in range(3):
            names = {ev[1] for ev in buffers[f"worker-{host}"]}
            assert "emit.shm_write" in names
            assert "mail.shm_read" in names
        assert "shm.create" in {ev[1] for ev in buffers["coordinator"]}


class TestRejections:
    """Misconfiguration fails loudly, in the parent, before any spawn."""

    def test_unknown_transport(self):
        g = gen.path_graph(40)
        with pytest.raises(ConfigurationError, match="transport"):
            _engine(g, hosts=2, transport="carrier-pigeon")

    @pytest.mark.parametrize("engine", ("round", "flat", "async"))
    def test_mp_transport_rejected_off_mp(self, engine):
        with pytest.raises(ConfigurationError, match="mp_transport"):
            run_one_to_many(
                gen.path_graph(40),
                OneToManyConfig(engine=engine, mp_transport="shm"),
            )
