"""Tests for the extension features beyond the paper's core algorithms.

* k-core fingerprint layout (visualization, paper reference [1]);
* degeneracy ordering from the BZ visit order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.analysis.fingerprint import core_fingerprint, render_fingerprint
from repro.baselines import batagelj_zaversnik
from repro.baselines.batagelj_zaversnik import degeneracy_ordering
from repro.graph import generators as gen

from tests.conftest import graphs


class TestFingerprint:
    def test_radius_orders_by_coreness(self):
        g = gen.figure1_example()
        coreness = batagelj_zaversnik(g)
        layout = core_fingerprint(g, coreness, seed=1)
        # mean radius per shell must decrease as coreness increases
        by_shell: dict[int, list[float]] = {}
        for node, (radius, _) in layout.positions.items():
            by_shell.setdefault(coreness[node], []).append(radius)
        means = {
            k: sum(radii) / len(radii) for k, radii in by_shell.items()
        }
        assert means[3] < means[2] < means[1]

    def test_all_nodes_positioned_within_disc(self):
        g = gen.powerlaw_cluster_graph(120, 3, 0.3, seed=5)
        layout = core_fingerprint(g, batagelj_zaversnik(g), seed=2)
        assert set(layout.positions) == set(g.nodes())
        for radius, angle in layout.positions.values():
            assert 0.0 <= radius <= 1.0
            assert 0.0 <= angle < 6.3

    def test_deterministic(self):
        g = gen.figure1_example()
        coreness = batagelj_zaversnik(g)
        a = core_fingerprint(g, coreness, seed=9)
        b = core_fingerprint(g, coreness, seed=9)
        assert a.positions == b.positions

    def test_zero_core_graph(self):
        g = gen.empty_graph(5)
        layout = core_fingerprint(g, batagelj_zaversnik(g))
        assert layout.max_coreness == 0
        assert len(layout.positions) == 5

    def test_render_contains_shell_digits(self):
        g = gen.figure1_example()
        coreness = batagelj_zaversnik(g)
        art = render_fingerprint(core_fingerprint(g, coreness, seed=1), coreness)
        assert "fingerprint" in art
        assert "3" in art and "1" in art

    def test_cartesian_matches_polar(self):
        g = gen.cycle_graph(6)
        coreness = batagelj_zaversnik(g)
        layout = core_fingerprint(g, coreness, seed=0)
        import math

        for node, (radius, angle) in layout.positions.items():
            x, y = layout.cartesian(node)
            assert math.hypot(x, y) == pytest.approx(radius)


class TestDegeneracyOrdering:
    def test_empty(self):
        from repro.graph.graph import Graph

        assert degeneracy_ordering(Graph()) == []

    def test_permutation_of_nodes(self):
        g = gen.powerlaw_cluster_graph(60, 3, 0.2, seed=4)
        order = degeneracy_ordering(g)
        assert sorted(order) == sorted(g.nodes())

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_back_degree_bounded_by_degeneracy(self, g):
        """Defining property: each node has <= k_max neighbours later in
        the ordering."""
        order = degeneracy_ordering(g)
        kmax = max(batagelj_zaversnik(g).values(), default=0)
        position = {u: i for i, u in enumerate(order)}
        for u in g.nodes():
            later = sum(1 for v in g.neighbors(u) if position[v] > position[u])
            assert later <= kmax

    def test_pendant_first_on_clique_with_tail(self):
        g = gen.clique_graph(5)
        g.add_edge(4, 5)
        order = degeneracy_ordering(g)
        assert order[0] == 5  # degree-1 pendant peels first
