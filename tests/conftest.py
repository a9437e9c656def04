"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import re

import pytest
from hypothesis import strategies as st

from repro.graph.graph import Graph
from repro.graph import generators as gen


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def graphs(draw, min_nodes: int = 1, max_nodes: int = 36, max_extra_edges: int = 90):
    """Random simple undirected graphs with nodes 0..n-1.

    Small enough for oracle cross-checks on every example, large enough
    to hit non-trivial core structure (k_max up to ~8).
    """
    n = draw(st.integers(min_nodes, max_nodes))
    if n < 2:
        return Graph.from_edges([], num_nodes=n)
    edge_count = draw(st.integers(0, min(max_extra_edges, n * (n - 1) // 2)))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=edge_count,
            max_size=edge_count,
        )
    )
    return Graph.from_edges(edges, num_nodes=n)


@st.composite
def connected_graphs(draw, min_nodes: int = 2, max_nodes: int = 30):
    """Random connected graphs: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_nodes, max_nodes))
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(0, v - 1))
        edges.append((parent, v))
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=2 * n,
        )
    )
    edges.extend(extra)
    return Graph.from_edges(edges, num_nodes=n)


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def path6() -> Graph:
    """A six-node path (the Section-4 linear-chain remark)."""
    return gen.path_graph(6)


@pytest.fixture
def figure2() -> Graph:
    """The paper's Figure-2 worked-example graph."""
    return gen.figure2_example()


@pytest.fixture
def figure1() -> Graph:
    """A graph with the three-shell structure of Figure 1."""
    return gen.figure1_example()


@pytest.fixture
def worst12() -> Graph:
    """The paper's Figure-3 worst-case graph (N = 12)."""
    return gen.worst_case_graph(12)


@pytest.fixture
def small_social() -> Graph:
    """A modest powerlaw-cluster graph for protocol tests."""
    return gen.powerlaw_cluster_graph(120, m=3, p=0.3, seed=42)


@pytest.fixture
def medium_social() -> Graph:
    """A larger graph for integration-style tests."""
    return gen.powerlaw_cluster_graph(400, m=4, p=0.25, seed=7)


@pytest.fixture
def usage_error(capsys):
    """``usage_error(argv, match)`` runs ``repro.cli.main(argv)``, which
    must fail as a usage error: exit code 2 and one ``repro-kcore:
    error:`` line on stderr, no traceback, that the regex ``match``
    searches. Returns that line."""
    from repro.cli import main

    def run(argv, match: str) -> str:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-kcore: error: ")
        assert err.count("\n") == 1, err
        assert re.search(match, err), err
        return err

    return run
