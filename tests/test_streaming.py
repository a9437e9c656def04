"""Tests for incremental coreness maintenance."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import batagelj_zaversnik
from repro.errors import EdgeError, GraphError
from repro.graph import generators as gen
from repro.streaming import DynamicKCore

from tests.replay import check_churn, churn_cells


class TestBasics:
    def test_starts_from_existing_graph(self):
        g = gen.clique_graph(4)
        engine = DynamicKCore(g)
        assert engine.coreness == {0: 3, 1: 3, 2: 3, 3: 3}

    def test_insert_first_edge(self):
        engine = DynamicKCore()
        engine.insert_edge(0, 1)
        assert engine.coreness == {0: 1, 1: 1}

    def test_insert_closing_triangle_raises_coreness(self):
        engine = DynamicKCore(gen.path_graph(3))
        assert engine.coreness == {0: 1, 1: 1, 2: 1}
        engine.insert_edge(0, 2)
        assert engine.coreness == {0: 2, 1: 2, 2: 2}

    def test_delete_edge_lowers_coreness(self):
        engine = DynamicKCore(gen.cycle_graph(4))
        engine.delete_edge(0, 1)
        assert engine.coreness == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_duplicate_edge_rejected(self):
        engine = DynamicKCore(gen.path_graph(2))
        with pytest.raises(EdgeError):
            engine.insert_edge(0, 1)

    def test_missing_edge_delete_rejected(self):
        engine = DynamicKCore(gen.path_graph(2))
        with pytest.raises(EdgeError):
            engine.delete_edge(0, 9)

    def test_add_node_and_duplicate_rejected(self):
        engine = DynamicKCore()
        engine.add_node(5)
        assert engine.coreness == {5: 0}
        with pytest.raises(GraphError):
            engine.add_node(5)

    def test_remove_node(self):
        engine = DynamicKCore(gen.clique_graph(4))
        engine.remove_node(0)
        assert engine.coreness == {1: 2, 2: 2, 3: 2}

    def test_original_graph_not_mutated(self):
        g = gen.path_graph(3)
        engine = DynamicKCore(g)
        engine.insert_edge(0, 2)
        assert not g.has_edge(0, 2)


class TestLocality:
    def test_remote_insert_touches_few_nodes(self):
        """An edge inside one community must not re-evaluate the rest."""
        g = gen.grid_graph(20, 20)
        engine = DynamicKCore(g)
        engine.delete_edge(0, 1)
        assert engine.touched_last_op < 30

    def test_pendant_insert_is_cheap(self):
        g = gen.clique_graph(30)
        engine = DynamicKCore(g)
        engine.insert_edge(0, 100)  # new pendant node
        assert engine.touched_last_op <= 35
        assert engine.coreness[100] == 1
        assert engine.coreness[0] == 29


class TestAgainstRecomputation:
    @given(churn_cells(batch=1))
    @settings(max_examples=30, deadline=None)
    def test_random_edit_sequences(self, example):
        """The oracle holds BZ's coreness after every single drawn edit."""
        check_churn(*example)

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_grow_then_shrink(self, seed):
        rng = random.Random(seed)
        engine = DynamicKCore()
        inserted: list[tuple[int, int]] = []
        for _ in range(30):
            u, v = rng.randrange(12), rng.randrange(12)
            if u != v and not engine.has_edge(u, v):
                engine.insert_edge(u, v)
                inserted.append((u, v))
        assert engine.verify()
        rng.shuffle(inserted)
        for u, v in inserted:
            engine.delete_edge(u, v)
            assert engine.verify()

    def test_node_churn(self):
        engine = DynamicKCore(gen.powerlaw_cluster_graph(60, 3, 0.3, seed=4))
        for node in (5, 17, 23):
            engine.remove_node(node)
            assert engine.verify()
        truth = batagelj_zaversnik(engine.graph)
        assert engine.coreness == truth
