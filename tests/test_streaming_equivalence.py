"""Differential churn grid: flat maintenance is bit-identical.

The acceptance bar of the streaming tentpole: after **every batch** of
every cell in the grid — 12 graph families × three trace shapes
(insert-only, delete-only, mixed) × three seeds × both kernel backends
— :class:`~repro.streaming.FlatDynamicKCore`'s coreness map equals the
object :class:`~repro.streaming.DynamicKCore` oracle *and* from-scratch
Batagelj–Zaveršnik. On top of the grid: forced mid-trace compaction,
duplicate-edge / self-loop rejection parity, nodes appearing and
vanishing (and reappearing under the same id), the ChurnService
facade, the approx (ELM) lane's sample-exactness, and
hypothesis-generated edit scripts in the style of
``test_backend_equivalence.py``.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import batagelj_zaversnik
from repro.errors import (
    ConfigurationError,
    EdgeError,
    GraphError,
    NodeNotFoundError,
)
from repro.graph import generators as gen
from repro.sim.kernels import numpy_available, resolve_backend
from repro.streaming import ChurnService, DynamicKCore, FlatDynamicKCore
from repro.workloads.churn import ChurnEvent, generate_churn_trace

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend needs numpy"
)

BACKENDS = (
    "stdlib",
    pytest.param("numpy", marks=requires_numpy),
)

#: The same twelve families as the engine-equivalence suites.
FAMILIES = {
    "empty": lambda: gen.empty_graph(9),
    "path": lambda: gen.path_graph(17),
    "clique": lambda: gen.clique_graph(9),
    "star": lambda: gen.star_graph(12),
    "grid": lambda: gen.grid_graph(5, 6),
    "worst-case": lambda: gen.worst_case_graph(18),
    "figure2": lambda: gen.figure2_example(),
    "er": lambda: gen.erdos_renyi_graph(60, 0.07, seed=7),
    "er-with-isolated": lambda: gen.erdos_renyi_graph(70, 0.02, seed=5),
    "ba": lambda: gen.preferential_attachment_graph(70, 3, seed=6),
    "plc": lambda: gen.powerlaw_cluster_graph(60, 3, 0.3, seed=4),
    "caveman": lambda: gen.caveman_graph(5, 5),
}

SHAPES = ("insert-only", "delete-only", "mixed")
SEEDS = (0, 1, 2)
BATCH = 8


def _script(graph, shape: str, seed: int, length: int = 48):
    """A deterministic churn-event script of the requested shape.

    Events carry enough state-tracking to stay mostly applicable, but
    correctness does not depend on it: both engines share the replay
    guard semantics, so an event invalidated by an earlier one is a
    no-op on both sides.
    """
    rng = random.Random((seed << 8) ^ graph.num_nodes)
    nodes = sorted(graph.nodes())
    edges = sorted(tuple(sorted(e)) for e in graph.edges())
    next_id = (max(nodes) + 1) if nodes else 0
    events = []
    for step in range(length):
        t = float(step)
        kinds = {
            "insert-only": ("join", "link"),
            "delete-only": ("leave", "unlink"),
            "mixed": ("join", "link", "leave", "unlink"),
        }[shape]
        kind = kinds[rng.randrange(len(kinds))]
        if kind == "join":
            contacts = tuple(rng.sample(nodes, min(2, len(nodes))))
            events.append(ChurnEvent(t, "join", (next_id, *contacts)))
            nodes.append(next_id)
            edges.extend(tuple(sorted((next_id, c))) for c in contacts)
            next_id += 1
        elif kind == "link" and len(nodes) >= 2:
            u, v = rng.sample(nodes, 2)
            events.append(ChurnEvent(t, "link", (u, v)))
            edges.append(tuple(sorted((u, v))))
        elif kind == "leave" and nodes:
            victim = rng.choice(nodes)
            events.append(ChurnEvent(t, "leave", (victim,)))
            nodes.remove(victim)
            edges = [e for e in edges if victim not in e]
        elif kind == "unlink" and edges:
            events.append(ChurnEvent(t, "unlink", edges.pop(
                rng.randrange(len(edges))
            )))
    return events


def _apply_to_oracle(oracle: DynamicKCore, event: ChurnEvent) -> None:
    """Replay one event onto the object engine with the shared guards."""
    if event.kind == "join":
        new, *contacts = event.nodes
        oracle.add_node(new)
        for contact in contacts:
            if oracle.has_node(contact):
                oracle.insert_edge(new, contact)
    elif event.kind == "leave":
        if oracle.has_node(event.nodes[0]):
            oracle.remove_node(event.nodes[0])
    elif event.kind == "link":
        u, v = event.nodes
        if oracle.has_node(u) and oracle.has_node(v) \
                and not oracle.has_edge(u, v):
            oracle.insert_edge(u, v)
    else:
        u, v = event.nodes
        if oracle.has_edge(u, v):
            oracle.delete_edge(u, v)


def _drive(flat: FlatDynamicKCore, oracle: DynamicKCore, events,
           batch: int = BATCH, compact_at: int | None = None):
    """Batched differential replay; asserts equality after every batch."""
    for at in range(0, len(events), batch):
        chunk = events[at:at + batch]
        flat.apply_events(chunk)
        for event in chunk:
            _apply_to_oracle(oracle, event)
        if compact_at is not None and at >= compact_at:
            flat.compact()
            compact_at = None
        expected = batagelj_zaversnik(oracle.graph)
        assert flat.coreness == oracle.coreness == expected, (
            f"divergence after batch at event {at}"
        )


class TestChurnGrid:
    """12 families × 3 shapes × 3 seeds × both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_cell(self, family, shape, backend):
        for seed in SEEDS:
            graph = FAMILIES[family]()
            events = _script(graph, shape, seed)
            flat = FlatDynamicKCore(graph, backend=resolve_backend(backend))
            oracle = DynamicKCore(graph)
            _drive(flat, oracle, events)
            assert flat.verify()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forced_mid_trace_compaction(self, backend):
        graph = FAMILIES["ba"]()
        events = _script(graph, "mixed", 3, length=64)
        flat = FlatDynamicKCore(graph, backend=resolve_backend(backend))
        oracle = DynamicKCore(graph)
        _drive(flat, oracle, events, compact_at=len(events) // 2)
        assert flat.metrics["compactions"] >= 1

    @requires_numpy
    def test_backends_agree_on_metrics_and_rounds(self):
        graph = FAMILIES["er"]()
        events = _script(graph, "mixed", 5, length=64)
        engines = [
            FlatDynamicKCore(graph, backend=resolve_backend(name))
            for name in ("stdlib", "numpy")
        ]
        for engine in engines:
            for at in range(0, len(events), BATCH):
                engine.apply_events(events[at:at + BATCH])
        a, b = engines
        assert a.coreness == b.coreness
        # the Jacobi contract: dirty counts, round counts and compaction
        # schedule are schedule-independent, hence backend-identical
        assert a.metrics == b.metrics


class TestInsertWalkIsLinear:
    """The insert walk scans each row's neighbours a bounded number of
    times, however many candidates reach a rejected high-degree row."""

    LEVEL = 8
    LEAVES = 300

    def _gadget(self, graph, base: int) -> None:
        """A clique ``base..base+LEVEL`` (coreness ``LEVEL``) and a hub
        adjacent to all of it but ``base`` and to ``LEAVES`` leaves: the
        hub sits at ``LEVEL`` with exactly ``LEVEL`` neighbours there, so
        the walk rejects it from each of those ``LEVEL`` candidates."""
        clique = range(base, base + self.LEVEL + 1)
        for u in clique:
            for v in clique:
                if u < v:
                    graph.add_edge(u, v)
        hub = base + self.LEVEL + 1
        for u in clique[1:]:
            graph.add_edge(hub, u)
        for leaf in range(hub + 1, hub + 1 + self.LEAVES):
            graph.add_edge(hub, leaf)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_each_row_scanned_at_most_four_times(self, backend, monkeypatch):
        from repro.graph.dynamic_csr import DynamicCSRGraph

        graph = gen.empty_graph(0)
        second = self.LEVEL + 2 + self.LEAVES
        self._gadget(graph, 0)
        self._gadget(graph, second)
        hub = self.LEVEL + 1
        assert batagelj_zaversnik(graph)[hub] == self.LEVEL
        flat = FlatDynamicKCore(graph, backend=resolve_backend(backend))
        oracle = DynamicKCore(graph)

        scans: Counter = Counter()
        original = DynamicCSRGraph.neighbors_rows

        def spy(self, row):
            scans[row] += 1
            return original(self, row)

        monkeypatch.setattr(DynamicCSRGraph, "neighbors_rows", spy)
        # both roots at ``LEVEL``: the walk enters both cliques, and
        # every clique row but the root reaches its hub
        for engine in (flat, oracle):
            engine.insert_edge(0, second)
        assert scans[flat.graph.row_of(hub)] == 1
        assert max(scans.values()) <= 4
        assert flat.coreness == oracle.coreness
        assert flat.verify()


class TestEditEdgeCases:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_edge_and_self_loop_rejection(self, backend):
        flat = FlatDynamicKCore(backend=resolve_backend(backend))
        oracle = DynamicKCore()
        for engine in (flat, oracle):
            engine.insert_edge(0, 1)
            with pytest.raises(EdgeError, match="already present"):
                engine.insert_edge(0, 1)
            with pytest.raises(EdgeError, match="already present"):
                engine.insert_edge(1, 0)
        with pytest.raises(EdgeError, match="self-loop"):
            flat.insert_edge(2, 2)
        with pytest.raises(GraphError, match="already present"):
            flat.add_node(0)
        assert flat.coreness == oracle.coreness  # rejections changed nothing

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_node_vanishes_and_reappears(self, backend):
        flat = FlatDynamicKCore(
            gen.clique_graph(5), backend=resolve_backend(backend)
        )
        oracle = DynamicKCore(gen.clique_graph(5))
        for engine in (flat, oracle):
            engine.remove_node(2)          # vanishes
            engine.insert_edge(2, 0)       # same id reappears via an edge
            engine.insert_edge(2, 9)       # brand-new neighbour appears
            engine.remove_node(9)          # ... and vanishes again
        assert flat.coreness == oracle.coreness \
            == batagelj_zaversnik(oracle.graph)
        assert flat.degree(2) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_isolated_nodes_survive_batches_and_compaction(self, backend):
        flat = FlatDynamicKCore(backend=resolve_backend(backend))
        flat.add_node(7)
        flat.apply_events([
            ChurnEvent(0.0, "join", (10,)),
            ChurnEvent(1.0, "link", (7, 10)),
            ChurnEvent(2.0, "unlink", (7, 10)),
        ])
        flat.compact()
        assert flat.coreness == {7: 0, 10: 0}

    def test_unknown_event_kind_rejected(self):
        class Bogus:
            kind = "merge"
            nodes = (0, 1)

        flat = FlatDynamicKCore()
        with pytest.raises(ConfigurationError, match="merge"):
            flat.apply_events([Bogus()])


class TestGeneratedTraces:
    """The synthetic trace generator drives both engines identically."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_trace_equivalence(self, seed, backend):
        graph = gen.erdos_renyi_graph(40, 0.1, seed=seed)
        trace = generate_churn_trace(
            graph, duration=120, join_rate=0.6, mean_session=50,
            rewire_rate=0.5, seed=seed,
        )
        flat = FlatDynamicKCore(graph, backend=resolve_backend(backend))
        oracle = DynamicKCore(graph)
        _drive(flat, oracle, list(trace), batch=16)


class TestChurnService:
    def test_queries_flush_the_buffer(self):
        service = ChurnService(batch_size=1000)
        service.submit([
            ChurnEvent(0.0, "join", (0,)),
            ChurnEvent(1.0, "join", (1, 0)),
            ChurnEvent(2.0, "join", (2, 0, 1)),
        ])
        assert service.pending == 3          # batch never filled
        assert service.coreness_of(2) == 2   # ... but queries see it all
        assert service.pending == 0
        assert service.core(2) == {0, 1, 2}
        assert service.verify()

    def test_full_batches_apply_eagerly(self):
        service = ChurnService(batch_size=2)
        ran = service.submit(
            [ChurnEvent(float(i), "join", (i,)) for i in range(5)]
        )
        assert ran == 2 and service.pending == 1
        assert service.batches_applied == 2
        service.flush()
        assert service.metrics["edits_applied"] == 5

    def test_batch_size_validated(self):
        with pytest.raises(ConfigurationError, match="batch_size"):
            ChurnService(batch_size=0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_coreness_of_matches_full_map(self, backend):
        graph = gen.erdos_renyi_graph(120, 0.08, seed=3)
        service = ChurnService(graph, backend=resolve_backend(backend),
                               batch_size=BATCH)
        for event in _script(graph, "mixed", seed=1):
            service.submit([event])
            full = service.coreness()
            assert {u: service.coreness_of(u) for u in full} == full
        with pytest.raises(NodeNotFoundError):
            service.coreness_of(10**9)


class TestCorenessOf:
    """``FlatDynamicKCore.coreness_of`` reads one estimate; it must agree
    with the full map on both lanes and both backends."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("approx", [None, 0.5])
    def test_matches_full_map(self, backend, approx):
        graph = gen.erdos_renyi_graph(200, 0.1, seed=9)
        engine = FlatDynamicKCore(graph, backend=resolve_backend(backend),
                                  approx=approx, approx_floor=150, seed=4)
        if approx is not None:
            assert engine.sample_probability < 1.0  # scaling is exercised
        events = _script(graph, "mixed", seed=2)
        for start in range(0, len(events), BATCH):
            engine.apply_events(events[start:start + BATCH])
            full = engine.coreness
            assert {u: engine.coreness_of(u) for u in full} == full

    def test_unknown_node(self):
        engine = FlatDynamicKCore(gen.path_graph(4))
        engine.remove_node(3)
        for node in (3, -1, 99):
            with pytest.raises(NodeNotFoundError):
                engine.coreness_of(node)


class TestApproxLane:
    def test_parameters_validated(self):
        with pytest.raises(ConfigurationError, match="approx"):
            FlatDynamicKCore(approx=1.5)
        with pytest.raises(ConfigurationError, match="approx_floor"):
            FlatDynamicKCore(approx=0.5, approx_floor=0)

    def test_sample_is_exactly_maintained(self):
        graph = gen.erdos_renyi_graph(200, 0.1, seed=9)
        engine = FlatDynamicKCore(graph, approx=0.5, approx_floor=150,
                                  seed=4)
        assert 0.0 < engine.sample_probability < 1.0
        assert engine.graph.num_edges < graph.num_edges
        rng = random.Random(11)
        for _ in range(30):
            u, v = rng.sample(range(200), 2)
            if engine.has_edge(u, v):
                engine.delete_edge(u, v)
            else:
                try:
                    engine.insert_edge(u, v)
                except EdgeError:
                    pass  # unsampled duplicate of a full-graph edge
        assert engine.verify()

    def test_scaling_is_applied(self):
        graph = gen.clique_graph(12)
        engine = FlatDynamicKCore(graph, approx=0.5, approx_floor=200)
        p = engine.sample_probability
        sample_core = {
            node: engine.graph.degree(node) for node in engine.coreness
        }
        del sample_core
        for node, scaled in engine.coreness.items():
            row = engine.graph.row_of(node)
            assert scaled == int(engine._est[row] / p + 0.5)

    def test_exact_lane_reports_p_one(self):
        assert FlatDynamicKCore().sample_probability == 1.0


@st.composite
def edit_scripts(draw):
    n = draw(st.integers(3, 12))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(("link", "unlink", "leave", "join")),
                  st.integers(0, 14), st.integers(0, 14)),
        min_size=1, max_size=40,
    ))
    return n, steps


class TestPropertyBased:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(script=edit_scripts())
    @settings(max_examples=25, deadline=None)
    def test_random_scripts_never_diverge(self, backend, script):
        n, steps = script
        graph = gen.erdos_renyi_graph(n, 0.3, seed=n)
        flat = FlatDynamicKCore(graph, backend=resolve_backend(backend))
        oracle = DynamicKCore(graph)
        events = []
        for t, (kind, a, b) in enumerate(steps):
            if kind == "join":
                events.append(ChurnEvent(float(t), "join", (100 + t, a)))
            elif kind == "leave":
                events.append(ChurnEvent(float(t), "leave", (a,)))
            elif a != b:
                events.append(ChurnEvent(float(t), kind, (a, b)))
        _drive(flat, oracle, events, batch=5)
        assert flat.verify() and oracle.verify()
