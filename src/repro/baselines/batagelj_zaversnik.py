"""The Batagelj–Zaveršnik O(m) coreness algorithm (paper reference [3]).

Nodes are processed in non-decreasing degree order using bucket sort;
when a node is removed, its higher-degree neighbours' effective degrees
drop by one and they migrate one bucket down. The visit order is
maintained in-place with the classic position-swap trick, so the whole
run is O(max(n, m)).

The peel itself runs over a :class:`~repro.graph.csr.CSRGraph`: every
auxiliary structure (degrees, buckets, positions, cores) is a flat
stdlib ``array`` indexed by compact node index, and neighbour visits
walk the CSR ``targets`` slice — no dict lookups or set iterators on the
hot path, so the exact baseline scales with the flat protocol engine.
:class:`Graph` inputs are compacted on entry and results are translated
back to original ids on exit.

This is the ground-truth oracle for every distributed run in the test
suite, and the sequential baseline timed in ``benchmarks/bench_baselines``.
"""

from __future__ import annotations

from array import array

from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph

__all__ = [
    "batagelj_zaversnik",
    "batagelj_zaversnik_csr",
    "batagelj_zaversnik_order",
    "degeneracy_ordering",
]


def _peel(csr: CSRGraph, later: "array | None" = None) -> tuple[array, array]:
    """Shared bucket-peel; returns (core per compact index, visit order).

    Positions before the cursor never move again, so ``vert`` ends up
    holding the visit order. With ``later`` (one zeroed slot per node)
    the ordering path also records each node's remaining degree: the
    neighbours visited after it (``position[j] > cursor``), at most its
    core.
    """
    n = csr.num_nodes
    offsets, targets = csr.offsets, csr.targets
    if n == 0:
        return array("q"), array("q")

    degree = array("q", [0]) * n
    max_degree = 0
    for i in range(n):
        d = offsets[i + 1] - offsets[i]
        degree[i] = d
        if d > max_degree:
            max_degree = d

    # bucket sort nodes by degree
    bin_start = array("q", [0]) * (max_degree + 2)
    for d in degree:
        bin_start[d + 1] += 1
    for d in range(max_degree + 1):
        bin_start[d + 1] += bin_start[d]

    position = array("q", [0]) * n  # position of node i in vert
    vert = array("q", [0]) * n      # nodes sorted by current degree
    fill = array("q", bin_start[:max_degree + 1])
    for i in range(n):
        d = degree[i]
        position[i] = fill[d]
        vert[fill[d]] = i
        fill[d] += 1

    core = array("q", degree)
    if later is None:
        for cursor in range(n):
            i = vert[cursor]
            ci = core[i]
            for e in range(offsets[i], offsets[i + 1]):
                j = targets[e]
                if core[j] > ci:
                    # move j one bucket down: swap it with the first node
                    # of its current bucket, then shift the bucket boundary
                    dj = core[j]
                    swap_pos = bin_start[dj]
                    swap_node = vert[swap_pos]
                    if j != swap_node:
                        pj = position[j]
                        vert[pj], vert[swap_pos] = swap_node, j
                        position[j], position[swap_node] = swap_pos, pj
                    bin_start[dj] += 1
                    core[j] -= 1
        return core, vert

    # the same loop, counting later neighbours on the way (a neighbour
    # above the current core is always unvisited, so the move nests)
    for cursor in range(n):
        i = vert[cursor]
        ci = core[i]
        after = 0
        for e in range(offsets[i], offsets[i + 1]):
            j = targets[e]
            if position[j] > cursor:
                after += 1
                if core[j] > ci:
                    dj = core[j]
                    swap_pos = bin_start[dj]
                    swap_node = vert[swap_pos]
                    if j != swap_node:
                        pj = position[j]
                        vert[pj], vert[swap_pos] = swap_node, j
                        position[j], position[swap_node] = swap_pos, pj
                    bin_start[dj] += 1
                    core[j] -= 1
        later[i] = after
    return core, vert


def batagelj_zaversnik_csr(csr: CSRGraph) -> array:
    """Coreness per *compact* node index (``csr.ids[i]`` is the id).

    The allocation-free entry point for callers that already hold a
    :class:`CSRGraph` (benchmarks, the flat engine's tests).
    """
    core, _ = _peel(csr)
    return core


def batagelj_zaversnik_order(csr: CSRGraph) -> tuple[array, array, array]:
    """``(core, order, later)`` per compact index: the coreness, the
    peel's visit order and each node's neighbours visited after it.

    The order is a *k-order*: cores are non-decreasing along it and
    ``later[i] <= core[i]`` — the seed of the streaming engine's
    order-based inserts.
    """
    later = array("q", [0]) * csr.num_nodes
    core, order = _peel(csr, later)
    return core, order, later


def batagelj_zaversnik(graph: "Graph | CSRGraph") -> dict[int, int]:
    """Return ``{node: coreness}`` for every node of ``graph``.

    >>> from repro.graph.generators import clique_graph
    >>> batagelj_zaversnik(clique_graph(4)) == {0: 3, 1: 3, 2: 3, 3: 3}
    True
    """
    csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)
    core = batagelj_zaversnik_csr(csr)
    ids = csr.ids
    return {ids[i]: core[i] for i in range(len(ids))}


def degeneracy_ordering(graph: "Graph | CSRGraph") -> list[int]:
    """Nodes in the order the peeling process removes them.

    The visit order of the Batagelj–Zaveršnik run is a *degeneracy
    ordering*: cores are non-decreasing along it and every node has at
    most its own coreness (so at most ``k_max``) of neighbours among the
    nodes that come after it. Useful downstream for greedy colouring
    and clique enumeration; exposed here because the ordering falls out
    of the algorithm for free.

    Only *a* valid degeneracy ordering is guaranteed: ties within a
    degree bucket resolve by ascending node id (the CSR compaction
    order), not by the graph's insertion order.
    """
    csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)
    _, order, _ = batagelj_zaversnik_order(csr)
    ids = csr.ids
    return [ids[i] for i in order]
