"""Experiment O5 — micro-benchmark of the computeIndex kernel.

computeIndex runs once per activation per node; its cost is O(d + k).
These micro-benchmarks pin the kernel's scaling across degrees, the
worklist-vs-naive cascade cost on a single host owning a whole graph
(the |H| = 1 degenerate case of the one-to-many protocol), and — since
the shared kernel layer landed — the batched Algorithm 2 across the
stdlib/numpy backends (one ``hindex_sweep`` kernel call: every node at
once).
"""

from __future__ import annotations

import random

import pytest

from repro.core.compute_index import (
    compute_index,
    improve_estimate_naive,
    improve_estimate_worklist,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import powerlaw_cluster_graph
from repro.sim.kernels import numpy_available, resolve_backend


@pytest.mark.benchmark(group="compute-index")
@pytest.mark.parametrize("degree", [10, 100, 1000, 10000])
def test_compute_index_scaling(benchmark, degree):
    rng = random.Random(7)
    estimates = [rng.randrange(1, degree) for _ in range(degree)]
    result = benchmark(compute_index, estimates, degree)
    assert 1 <= result <= degree


@pytest.mark.benchmark(group="batch-compute-index")
@pytest.mark.parametrize("backend_name", ["stdlib", "numpy"])
def test_batch_compute_index_backends(benchmark, backend_name):
    """One whole-graph batch (every node at once), per backend.

    One h-index sweep from the degrees, through the ``hindex_sweep``
    kernel: the shape of a lockstep round's frontier recompute too
    (per-node caps, per-edge neighbour values).
    """
    if backend_name == "numpy" and not numpy_available():
        pytest.skip("numpy backend needs numpy")
    backend = resolve_backend(backend_name)
    graph = powerlaw_cluster_graph(2000, m=4, p=0.3, seed=5)
    csr = CSRGraph.from_graph(graph)
    offsets = backend.graph_array(csr.offsets)
    targets = backend.graph_array(csr.targets)
    degrees = backend.degrees(offsets, csr.num_nodes)
    scratch: list[int] = []

    _, values = benchmark(
        backend.hindex_sweep, offsets, targets, degrees, scratch
    )
    expected = [
        compute_index(
            [csr.degree(t) for t in csr.neighbors(u)], csr.degree(u)
        )
        if csr.degree(u)
        else 0
        for u in range(csr.num_nodes)
    ]
    assert list(values) == expected


@pytest.mark.benchmark(group="improve-estimate")
@pytest.mark.parametrize("variant", ["worklist", "naive"])
def test_single_host_cascade(benchmark, variant):
    graph = powerlaw_cluster_graph(2000, m=4, p=0.3, seed=5)
    neighbors = {u: tuple(graph.neighbors(u)) for u in graph.nodes()}
    owned = list(graph.nodes())

    def run():
        est = {u: graph.degree(u) for u in owned}
        changed: set[int] = set()
        if variant == "worklist":
            improve_estimate_worklist(est, owned, neighbors, changed)
        else:
            improve_estimate_naive(est, owned, neighbors, changed)
        return est

    est = benchmark(run)
    from repro.baselines.batagelj_zaversnik import batagelj_zaversnik

    assert est == batagelj_zaversnik(graph)
