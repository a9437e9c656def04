"""Differential churn grid: flat maintenance is bit-identical.

The acceptance bar of the streaming tentpole: after **every batch** of
every cell in the grid — 12 graph families × three trace shapes
(insert-only, delete-only, mixed) × three seeds × both CSR builds the
engine can start from — :class:`~repro.streaming.FlatDynamicKCore`'s
coreness map equals the object :class:`~repro.streaming.DynamicKCore`
oracle *and* from-scratch Batagelj–Zaveršnik. On top of the grid:
row reuse under leave-then-join batches, duplicate-edge / self-loop
rejection parity, nodes appearing and vanishing (and reappearing under
the same id), the ChurnService facade, the approx (ELM) lane's
sample-exactness, hypothesis-generated edit scripts in the style of
``test_backend_equivalence.py``, and the delete-side re-convergence
(:func:`~repro.streaming.flat_maintenance.reconverge_from_bounds`)
against the full-recompute Jacobi loop.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import batagelj_zaversnik
from repro.core.compute_index import compute_index
from repro.errors import (
    ConfigurationError,
    EdgeError,
    GraphError,
    NodeNotFoundError,
)
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.sim.kernels import numpy_available, resolve_backend
from repro.streaming import ChurnService, DynamicKCore, FlatDynamicKCore
from repro.streaming import flat_maintenance
from repro.streaming.flat_maintenance import reconverge_from_bounds
from repro.workloads.churn import ChurnEvent, generate_churn_trace

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend needs numpy"
)

#: The kernel backend that built the CSR the engine starts from. The
#: engine runs no kernel, but ``read_edge_list`` builds a file of at
#: least ``NUMPY_MIN_PAIRS`` lines on numpy (the ``overlay-joinleave``
#: workload's file) and a shorter one on the stdlib.
BUILDS = (
    "stdlib",
    pytest.param("numpy", marks=requires_numpy),
)


def _seed(graph, build: str):
    """What the engine is handed: ``graph`` itself on the stdlib build,
    or the CSR the ``build`` backend's ``csr_from_edges`` kernel makes
    of it (``None`` is the empty graph; a self-loop per node keeps the
    isolated ones, as it does in a file)."""
    if build == "stdlib":
        return graph
    us, vs = array("q"), array("q")
    if graph is not None:
        for u, v in graph.edges():
            us.append(u)
            vs.append(v)
        nodes = array("q", graph.nodes())
        us.extend(nodes)
        vs.extend(nodes)
    return CSRGraph(*resolve_backend(build).csr_from_edges(us, vs))


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
           batch: int = BATCH):
    """Batched differential replay; asserts equality after every batch."""
    for at in range(0, len(events), batch):
        chunk = events[at:at + batch]
        flat.apply_events(chunk)
        for event in chunk:
            _apply_to_oracle(oracle, event)
        expected = batagelj_zaversnik(oracle.graph)
        assert flat.coreness == oracle.coreness == expected, (
            f"divergence after batch at event {at}"
        )
        flat.check_invariants()


class TestChurnGrid:
    """12 families × 3 shapes × 3 seeds × both seed builds."""

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_cell(self, family, shape, build):
        for seed in SEEDS:
            graph = FAMILIES[family]()
            events = _script(graph, shape, seed)
            flat = FlatDynamicKCore(_seed(graph, build))
            oracle = DynamicKCore(graph)
            _drive(flat, oracle, events)
            assert flat.verify()

    @pytest.mark.parametrize("build", BUILDS)
    def test_leave_then_join_batches_reuse_rows(self, build):
        # every batch has as many joins as leaves, after them: each
        # join takes a row a leave freed, so the row count never grows
        graph = FAMILIES["ba"]()
        flat = FlatDynamicKCore(_seed(graph, build))
        oracle = DynamicKCore(graph)
        rows = flat.graph.num_rows
        rng = random.Random(5)
        live = sorted(graph.nodes())
        next_id = live[-1] + 1
        for step in range(24):
            leaving = rng.sample(live, 1 + step % 3)
            events = [ChurnEvent(float(step), "leave", (x,)) for x in leaving]
            live = [x for x in live if x not in leaving]
            for _ in leaving:
                contacts = tuple(rng.sample(live, 2))
                events.append(
                    ChurnEvent(float(step), "join", (next_id, *contacts))
                )
                live.append(next_id)
                next_id += 1
            flat.apply_events(events)
            for event in events:
                _apply_to_oracle(oracle, event)
            assert flat.graph.num_rows <= rows, f"batch {step} added a row"
            flat.check_invariants()
            flat.graph.check_invariants()
            assert flat.coreness == oracle.coreness \
                == batagelj_zaversnik(oracle.graph)
        assert flat.verify()

    @requires_numpy
    def test_backends_agree_on_metrics_and_rounds(self):
        graph = FAMILIES["er"]()
        events = _script(graph, "mixed", 5, length=64)
        engines = [
            FlatDynamicKCore(_seed(graph, name)) for name in ("stdlib", "numpy")
        ]
        for engine in engines:
            for at in range(0, len(events), BATCH):
                engine.apply_events(events[at:at + BATCH])
        a, b = engines
        assert a.coreness == b.coreness
        # dirty counts and round counts do not depend on which backend
        # built the starting CSR
        assert a.metrics == b.metrics


def _single_edge_inserts(events):
    """``events`` (joins and links) as events of at most one edge each:
    a join keeps its first contact, and each further contact becomes a
    link from the new node."""
    out = []
    for event in events:
        if event.kind == "join":
            new, *contacts = event.nodes
            out.append(ChurnEvent(event.time, "join", (new, *contacts[:1])))
            out.extend(
                ChurnEvent(event.time, "link", (new, c)) for c in contacts[1:]
            )
        else:
            out.append(event)
    return out


@st.composite
def insert_scripts(draw):
    n = draw(st.integers(2, 14))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(("link", "join")),
                  st.integers(0, 16), st.integers(0, 16)),
        min_size=1, max_size=40,
    ))
    return n, steps


class TestEveryInsertIsExact:
    """OrderInsert alone leaves exact coreness and an exact k-order: no
    re-convergence follows an insert. So every single-edge insert batch
    is checked against the object oracle, from-scratch BZ and the
    k-order's invariants, before a later delete's re-convergence could
    lower an over-raised row and hide it."""

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family(self, family, build):
        for seed in SEEDS:
            graph = FAMILIES[family]()
            events = _single_edge_inserts(_script(graph, "insert-only", seed))
            flat = FlatDynamicKCore(_seed(graph, build))
            _drive(flat, DynamicKCore(graph), events, batch=1)

    @pytest.mark.parametrize("build", BUILDS)
    @given(script=insert_scripts())
    @settings(max_examples=40, deadline=None)
    def test_generated(self, build, script):
        n, steps = script
        graph = gen.erdos_renyi_graph(n, 0.35, seed=n)
        events = []
        for t, (kind, a, b) in enumerate(steps):
            if kind == "join":
                events.append(ChurnEvent(float(t), "join", (100 + t, a)))
            elif a != b:
                events.append(ChurnEvent(float(t), "link", (a, b)))
        flat = FlatDynamicKCore(_seed(graph, build))
        _drive(flat, DynamicKCore(graph), events, batch=1)

    @pytest.mark.parametrize("build", BUILDS)
    def test_insert_only_batch_runs_no_reconvergence(self, build,
                                                     monkeypatch):
        graph = FAMILIES["plc"]()
        events = _script(graph, "insert-only", 0)
        flat = FlatDynamicKCore(_seed(graph, build))
        before = dict(flat.coreness)
        calls = []
        original = flat_maintenance.reconverge_from_bounds

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(flat_maintenance, "reconverge_from_bounds", spy)
        assert flat.apply_events(events) > 0
        assert not calls
        assert flat.metrics["reconverge_rounds_per_batch"] == [0]
        assert flat.metrics["dirty_nodes_per_batch"] == [0]
        # rows rose in the batch: the case a re-convergence would follow
        assert any(flat.coreness[x] > k for x, k in before.items())
        flat.check_invariants()
        assert flat.verify()


class TestOrderInsertWorkBound:
    """An insert visits the rows that can rise, not the level set.

    The base is a ladder (``grid_graph(RUNGS, 2)``): thousands of rows
    at coreness 2, each with more than 2 neighbours at that level, the
    shape on which a level-set walk expands every row.
    """

    K = 2
    RUNGS = 1500

    def _spy(self, monkeypatch) -> Counter:
        from repro.graph.dynamic_csr import DynamicCSRGraph

        scans: Counter = Counter()
        original = DynamicCSRGraph.neighbors_rows

        def spy(self, row):
            scans[row] += 1
            return original(self, row)

        monkeypatch.setattr(DynamicCSRGraph, "neighbors_rows", spy)
        return scans

    @pytest.mark.parametrize("build", BUILDS)
    def test_no_scan_when_the_first_endpoint_has_room(self, build,
                                                      monkeypatch):
        from repro.baselines import degeneracy_ordering

        graph = gen.grid_graph(self.RUNGS, 2)
        assert set(batagelj_zaversnik(graph).values()) == {self.K}
        # the engine seeds its k-order from this peel: pick a first
        # endpoint with fewer than K neighbours after it
        order = degeneracy_ordering(graph)
        pos = {x: i for i, x in enumerate(order)}
        later = {
            x: sum(1 for y in graph.neighbors(x) if pos[y] > pos[x])
            for x in order
        }
        u = next(x for x in order if later[x] < self.K)
        v = next(
            y for y in reversed(order)
            if pos[y] > pos[u] + 1 and not graph.has_edge(u, y)
        )
        flat = FlatDynamicKCore(_seed(graph, build))
        oracle = DynamicKCore(graph)
        scans = self._spy(monkeypatch)
        for engine in (flat, oracle):
            engine.insert_edge(u, v)
        assert not scans, f"{len(scans)} rows scanned"
        assert flat.coreness == oracle.coreness
        flat.check_invariants()
        assert flat.verify()

    @pytest.mark.parametrize("build", BUILDS)
    def test_a_rising_insert_visits_the_risers(self, build, monkeypatch):
        # K4 minus the edge {a, b}, bridged to a ladder corner: the
        # insert of {a, b} raises exactly the four gadget rows, and the
        # bridge connects them to the whole coreness-2 ladder
        graph = gen.grid_graph(self.RUNGS, 2)
        a, b, c, d = range(2 * self.RUNGS, 2 * self.RUNGS + 4)
        for x, y in ((a, c), (a, d), (b, c), (b, d), (c, d), (c, 0)):
            graph.add_edge(x, y)
        assert set(batagelj_zaversnik(graph).values()) == {self.K}
        flat = FlatDynamicKCore(_seed(graph, build))
        oracle = DynamicKCore(graph)
        before = dict(flat.coreness)
        scans = self._spy(monkeypatch)
        for engine in (flat, oracle):
            engine.insert_edge(a, b)
        seen = Counter(scans)  # before the checks below scan rows too
        risers = {x for x, k in flat.coreness.items() if k != before[x]}
        assert risers == {a, b, c, d}
        row = flat.graph.row_of
        reached = {row(x) for x in risers} | {
            row(y) for x in risers for y in flat.graph.neighbors(x)
            if before[y] == self.K
        }
        assert set(seen) <= reached
        assert max(seen.values()) <= 2
        assert flat.coreness == oracle.coreness
        flat.check_invariants()
        assert flat.verify()

    @pytest.mark.parametrize("build", BUILDS)
    def test_evicted_rows_are_scanned_at_most_twice(self, build,
                                                    monkeypatch):
        # random chords on the ladder: a first endpoint already at K
        # later neighbours becomes a candidate, finds no support among
        # the rows it reaches and is evicted; nothing rises
        graph = gen.grid_graph(self.RUNGS, 2)
        flat = FlatDynamicKCore(_seed(graph, build))
        oracle = DynamicKCore(graph)
        scans = self._spy(monkeypatch)
        rng = random.Random(3)
        evictions = 0
        for _ in range(40):
            u, v = rng.sample(range(2 * self.RUNGS), 2)
            if flat.has_edge(u, v):
                continue
            scans.clear()
            for engine in (flat, oracle):
                engine.insert_edge(u, v)
            assert max(scans.values(), default=0) <= 2
            evictions += sum(1 for n in scans.values() if n == 2)
        assert evictions > 0
        assert set(flat.coreness.values()) == {self.K}
        assert flat.coreness == oracle.coreness
        flat.check_invariants()
        assert flat.verify()


class TestKOrderSeed:
    """The engine seeds its k-order from the Batagelj–Zaveršnik peel."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_degeneracy_ordering_is_a_k_order(self, family):
        from repro.baselines import degeneracy_ordering
        from repro.baselines.batagelj_zaversnik import (
            batagelj_zaversnik_order,
        )
        from repro.graph.csr import CSRGraph

        graph = FAMILIES[family]()
        core = batagelj_zaversnik(graph)
        order = degeneracy_ordering(graph)
        assert sorted(order) == sorted(graph.nodes())
        pos = {x: i for i, x in enumerate(order)}
        levels = [core[x] for x in order]
        assert levels == sorted(levels)
        for x in order:
            after = sum(1 for y in graph.neighbors(x) if pos[y] > pos[x])
            assert after <= core[x]
        # the ordering path's remaining degrees are those counts
        csr = CSRGraph.from_graph(graph)
        peel_core, peel_order, later = batagelj_zaversnik_order(csr)
        ids = csr.ids
        assert [ids[i] for i in peel_order] == order
        assert [peel_core[i] for i in range(len(ids))] == [
            core[x] for x in ids
        ]
        for i in range(len(ids)):
            assert later[i] == sum(
                1 for y in graph.neighbors(ids[i]) if pos[y] > pos[ids[i]]
            )

    def test_mid_level_inserts_relabel_when_the_gap_closes(self):
        from repro.streaming.korder import GAP, SHIFT, KOrder

        # rows 0-2 at level 1; more level-0 rows than halvings of GAP
        n = 3 + GAP.bit_length() + 2
        core = array("q", [1, 1, 1] + [0] * (n - 3))
        order = array("q", sorted(range(n), key=lambda r: (core[r], r)))
        korder = KOrder.from_peel(core, order, array("q", [0]) * n)
        korder.unlink(range(3, n))
        for row in range(3, n):  # each insert halves the gap after 0
            korder.insert_after(0, (row,))
        rows = list(korder.rows(1))
        assert rows == [0, *reversed(range(3, n)), 1, 2]
        labels = [korder.label[r] for r in rows]
        assert labels == sorted(set(labels))
        assert all(label >> SHIFT == 1 for label in labels)
        assert list(korder.rows(0)) == []


class TestEditEdgeCases:
    @pytest.mark.parametrize("build", BUILDS)
    def test_duplicate_edge_and_self_loop_rejection(self, build):
        flat = FlatDynamicKCore(_seed(None, build))
        oracle = DynamicKCore()
        for engine in (flat, oracle):
            engine.insert_edge(0, 1)
            with pytest.raises(EdgeError, match="already present"):
                engine.insert_edge(0, 1)
            with pytest.raises(EdgeError, match="already present"):
                engine.insert_edge(1, 0)
            with pytest.raises(EdgeError, match="self-loop"):
                engine.insert_edge(9, 9)   # rejected before 9 is added
            with pytest.raises(NodeNotFoundError) as absent:
                engine.remove_node(7)
            assert absent.value.node == 7
        with pytest.raises(GraphError, match="already present"):
            flat.add_node(0)
        assert not flat.has_node(9) and not oracle.has_node(9)
        assert flat.coreness == oracle.coreness  # rejections changed nothing

    @pytest.mark.parametrize("build", BUILDS)
    def test_node_vanishes_and_reappears(self, build):
        flat = FlatDynamicKCore(_seed(gen.clique_graph(5), build))
        oracle = DynamicKCore(gen.clique_graph(5))
        for engine in (flat, oracle):
            engine.remove_node(2)          # vanishes
            engine.insert_edge(2, 0)       # same id reappears via an edge
            engine.insert_edge(2, 9)       # brand-new neighbour appears
            engine.remove_node(9)          # ... and vanishes again
        assert flat.coreness == oracle.coreness \
            == batagelj_zaversnik(oracle.graph)
        assert flat.degree(2) == 1

    @pytest.mark.parametrize("build", BUILDS)
    def test_isolated_nodes_survive_batches_and_compaction(self, build):
        flat = FlatDynamicKCore(_seed(None, build))
        flat.add_node(7)
        flat.apply_events([
            ChurnEvent(0.0, "join", (10,)),
            ChurnEvent(1.0, "link", (7, 10)),
            ChurnEvent(2.0, "unlink", (7, 10)),
        ])
        assert flat.coreness == {7: 0, 10: 0}

    def test_unknown_event_kind_rejected(self):
        class Bogus:
            kind = "merge"
            nodes = (0, 1)

        flat = FlatDynamicKCore()
        with pytest.raises(ConfigurationError, match="merge"):
            flat.apply_events([Bogus()])


class TestBatchThatRaises:
    """A batch whose event raises still settles the edits before it,
    and the service keeps the events after it."""

    EVENTS = (
        ChurnEvent(0.0, "unlink", (0, 1)),
        ChurnEvent(1.0, "join", (2, 0)),  # node 2 already present
        ChurnEvent(2.0, "join", (4, 0)),
    )

    @pytest.mark.parametrize("build", BUILDS)
    def test_engine(self, build):
        flat = FlatDynamicKCore(_seed(gen.clique_graph(4), build))
        with pytest.raises(GraphError, match="already present"):
            flat.apply_events(self.EVENTS)
        assert not flat.has_node(4)  # the events after it are not applied
        expected = batagelj_zaversnik(flat.graph.to_graph())
        assert flat.coreness_of(0) == expected[0] == 2
        assert flat.coreness == expected
        assert flat.metrics["edits_applied"] == 1
        flat.check_invariants()
        assert flat.verify()

    @pytest.mark.parametrize("build", BUILDS)
    def test_service(self, build):
        service = ChurnService(_seed(gen.clique_graph(4), build))
        service.submit(self.EVENTS)
        with pytest.raises(GraphError, match="already present"):
            service.coreness_of(0)
        # the raising join is dropped, the one after it stays queued
        assert service.pending == 1
        assert service.coreness_of(4) == 1
        expected = batagelj_zaversnik(service.engine.graph.to_graph())
        assert service.coreness_of(0) == expected[0] == 2
        assert service.coreness() == expected
        assert service.verify()


class TestGeneratedTraces:
    """The synthetic trace generator drives both engines identically."""

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_generated_trace_equivalence(self, seed, build):
        graph = gen.erdos_renyi_graph(40, 0.1, seed=seed)
        trace = generate_churn_trace(
            graph, duration=120, join_rate=0.6, mean_session=50,
            rewire_rate=0.5, seed=seed,
        )
        flat = FlatDynamicKCore(_seed(graph, build))
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

    @pytest.mark.parametrize("build", BUILDS)
    def test_coreness_of_matches_full_map(self, build):
        graph = gen.erdos_renyi_graph(120, 0.08, seed=3)
        service = ChurnService(_seed(graph, build), batch_size=BATCH)
        for event in _script(graph, "mixed", seed=1):
            service.submit([event])
            full = service.coreness()
            assert {u: service.coreness_of(u) for u in full} == full
        with pytest.raises(NodeNotFoundError):
            service.coreness_of(10**9)


class TestCorenessOf:
    """``FlatDynamicKCore.coreness_of`` reads one estimate; it must agree
    with the full map on both lanes and both seed builds."""

    @pytest.mark.parametrize("build", BUILDS)
    @pytest.mark.parametrize("approx", [None, 0.5])
    def test_matches_full_map(self, build, approx):
        graph = gen.erdos_renyi_graph(200, 0.1, seed=9)
        engine = FlatDynamicKCore(_seed(graph, build), approx=approx,
                                  approx_floor=150, seed=4)
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
            engine.check_invariants()
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
    @pytest.mark.parametrize("build", BUILDS)
    @given(script=edit_scripts())
    @settings(max_examples=25, deadline=None)
    def test_random_scripts_never_diverge(self, build, script):
        n, steps = script
        graph = gen.erdos_renyi_graph(n, 0.3, seed=n)
        flat = FlatDynamicKCore(_seed(graph, build))
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
        flat.check_invariants()
        assert flat.verify() and oracle.verify()


# ----------------------------------------------------------------------
# delete-side re-convergence
# ----------------------------------------------------------------------
class TestReconvergeFromBounds:
    """``reconverge_from_bounds`` on hand-built dynamic CSRs."""

    def test_reconverge_from_bounds_contract(self):
        from repro.baselines.batagelj_zaversnik import batagelj_zaversnik_csr
        from repro.graph.dynamic_csr import DynamicCSRGraph

        graph = gen.clique_graph(6)
        g = DynamicCSRGraph.from_graph(graph)
        est = array("q", [5] * 6)     # old coreness of K6
        g.delete_edge(0, 1)
        changed, rounds = reconverge_from_bounds(
            g.rows, est, list(range(6)), []
        )
        oracle = batagelj_zaversnik_csr(g.to_csr())
        assert list(est) == list(oracle) == [4] * 6
        assert changed == [0, 1, 2, 3, 4, 5]
        assert rounds == 3            # Jacobi rounds
        assert all(type(c) is int for c in changed)

    def test_reconverge_skips_dead_and_zero_rows(self):
        from repro.graph.dynamic_csr import DynamicCSRGraph

        g = DynamicCSRGraph()
        g.insert_edge(0, 1)
        g.insert_edge(1, 2)
        g.add_node(7)                  # isolated: est 0, never touched
        est = array("q", [1, 1, 1, 0])
        changed, rounds = reconverge_from_bounds(g.rows, est, [0, 1, 2, 3], [])
        assert changed == [] and list(est) == [1, 1, 1, 0]


def _jacobi_oracle(rows, est, frontier, scratch, drops):
    """Re-convergence by full recompute: every round runs computeIndex
    on the whole frontier (the re-convergence before it counted
    supports). Appends ``(k, new)`` to ``drops`` for every drop of a row
    with a neighbour, once per round it drops in."""
    changed_flag = bytearray(len(rows))
    changed: list[int] = []
    work = [u for u in frontier if est[u] > 0]
    rounds = 0
    while work:
        rounds += 1
        round_drops: list[tuple[int, int]] = []
        for u in work:
            vals = [est[t] for t in rows[u]]
            k = compute_index(vals, est[u], scratch) if vals else 0
            if k < est[u]:
                round_drops.append((u, k))
                if vals:
                    drops.append((est[u], k))
        if not round_drops:
            break
        nxt: set[int] = set()
        for u, k in round_drops:
            est[u] = k
            if not changed_flag[u]:
                changed_flag[u] = 1
                changed.append(u)
        for u, _ in round_drops:
            for t in rows[u]:
                if est[t] > 0:
                    nxt.add(t)
        work = sorted(nxt)
    return sorted(changed), rounds


@st.composite
def _reconverge_inputs(draw):
    """A dynamic CSR after edits, with estimates that upper-bound its
    coreness, and a frontier that holds every row off its fixpoint.

    The estimates start at the coreness of the graph before the edits.
    Then edges are deleted (maybe every entry of a row) and nodes
    removed (freed rows at est 0), random rows are raised above
    their coreness, and the frontier gathers the rows each edit
    touched plus random ones, in random order."""
    from repro.baselines.batagelj_zaversnik import batagelj_zaversnik_csr
    from repro.graph.dynamic_csr import DynamicCSRGraph

    n = draw(st.integers(1, 14))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=48))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    g = DynamicCSRGraph()
    for x in range(n):
        g.add_node(x)
    for u, v in edges:
        g.insert_edge(u, v)
    csr = g.to_csr()
    est = array("q", [0]) * g.num_rows
    for i, k in enumerate(batagelj_zaversnik_csr(csr)):
        est[g.row_of(csr.ids[i])] = k
    frontier: set[int] = set()
    for u, v in draw(st.lists(st.sampled_from(edges), unique=True)) if edges else ():
        g.delete_edge(u, v)
        frontier.update((g.row_of(u), g.row_of(v)))
    for x in draw(st.lists(node, unique=True, max_size=n // 3)):
        row = g.row_of(x)
        frontier.update(g.remove_node(x))
        est[row] = 0
    alive = [row for row in range(g.num_rows) if g.alive[row]]
    if alive:
        for row, up in draw(st.lists(
            st.tuples(st.sampled_from(alive), st.integers(1, 3)), max_size=4
        )):
            est[row] += up
            frontier.add(row)
    frontier.update(draw(st.lists(st.integers(0, g.num_rows - 1), max_size=4)))
    frontier = draw(st.permutations(sorted(frontier)))
    return g, est, frontier


class TestReconvergeDifferential:
    """``reconverge_from_bounds`` against the full-recompute Jacobi loop.

    It returns the oracle's ``(changed, rounds)`` and leaves its
    ``est``, the coreness of the edited graph, on generated inputs. It
    decides drops from support counts, so it calls ``computeIndex``
    once per row and round in which the row drops, and never for a row
    with no neighbour (it drops to 0 without one).
    """

    @staticmethod
    def _stable_outside(g, est, frontier) -> bool:
        """The precondition: rows off the frontier are at their
        fixpoint."""
        inside = set(frontier)
        for row in range(g.num_rows):
            if row in inside or est[row] <= 0:
                continue
            vals = [est[t] for t in g.rows[row]]
            if not vals or compute_index(vals, est[row]) != est[row]:
                return False
        return True

    @settings(max_examples=300, deadline=None)
    @given(case=_reconverge_inputs())
    def test_matches_the_full_recompute(self, case):
        from repro.baselines.batagelj_zaversnik import batagelj_zaversnik_csr

        g, est, frontier = case
        assert self._stable_outside(g, est, frontier)
        want_est = array("q", est)
        drops: list[tuple[int, int]] = []
        want = _jacobi_oracle(g.rows, want_est, frontier, [], drops)
        calls: list[tuple[int, int]] = []

        def spy(vals, k, scratch=None):
            new = compute_index(vals, k, scratch)
            calls.append((k, new))
            # a support count that drifts low can recompute rows that
            # stay put, round after round: stop at the first extra call
            assert len(calls) <= len(drops), "a call for a row that stays"
            return new

        with mock.patch.object(flat_maintenance, "compute_index", spy):
            got = reconverge_from_bounds(g.rows, est, frontier, [])
        assert got == want
        assert est == want_est
        assert sorted(calls) == sorted(drops)
        csr = g.to_csr()
        core = batagelj_zaversnik_csr(csr)
        assert [est[g.row_of(x)] for x in csr.ids] == list(core)
