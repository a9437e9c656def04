"""One replay harness over the table of execution paths and edit traces.

Every engine row of :data:`repro.core.paths.PATHS` replays the run that
:data:`REFERENCE` names for it bit for bit (the coreness and every
observable), reaches BZ's coreness when it converges, and, running
Algorithm 1, stays within the paper's bounds (:mod:`repro.core.theory`).
:func:`check` asserts all of it for one cell (a row, a graph, options);
each engine's suite parametrizes its cells over the family table here
and fuzzes its own legs with :func:`replay`, and ``tests/test_replay.py``
checks the tables cover the registry and fuzzes every in-process leg. A
new path is one ``PATHS`` row and one :data:`REFERENCE` line.

The edit-trace leg, :func:`check_churn`, holds the streaming engine to
the same bar batch by batch against the object oracle; the churn grid
of ``tests/test_streaming_equivalence.py`` runs on it, and its
``TestPropertyBased`` fuzzes it on :func:`churn_cells`. :func:`cells`
sometimes hands its graph through a SNAP file, so the fuzzed legs also
run on what ``graph/io`` reads back.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from array import array

import pytest
from hypothesis import strategies as st

from repro.baselines import batagelj_zaversnik
from repro.core import paths, theory
from repro.core.api import decompose
from repro.errors import ReproError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.sim.kernels import numpy_available, resolve_backend
from repro.streaming import DynamicKCore, FlatDynamicKCore
from repro.workloads.churn import ARITY, ChurnEvent, apply_event

from tests.conftest import graphs

#: name -> builder; spans sparse/dense, regular/heavy-tailed, isolated
#: nodes, huge diameter and the paper's N-1-round adversarial family.
#: Every engine-seed grid shares these graphs.
FAMILIES = {
    "empty": lambda: gen.empty_graph(9),
    "path": lambda: gen.path_graph(17),
    "clique": lambda: gen.clique_graph(9),
    "star": lambda: gen.star_graph(12),
    "grid": lambda: gen.grid_graph(6, 8),
    "worst-case": lambda: gen.worst_case_graph(24),
    "figure2": lambda: gen.figure2_example(),
    "er": lambda: gen.erdos_renyi_graph(120, 0.045, seed=7),
    "er-with-isolated": lambda: gen.erdos_renyi_graph(130, 0.012, seed=5),
    "ba": lambda: gen.preferential_attachment_graph(140, 3, seed=6),
    "plc": lambda: gen.powerlaw_cluster_graph(110, 3, 0.3, seed=4),
    "caveman": lambda: gen.caveman_graph(6, 6),
}

#: The one-to-one lockstep grid's families, built per graph seed: a
#: lockstep run draws no random numbers, so that grid varies the graph.
SEEDED_FAMILIES = {
    "empty": lambda seed: gen.empty_graph(11),
    "path": lambda seed: gen.path_graph(17),
    "clique": lambda seed: gen.clique_graph(9),
    "star": lambda seed: gen.star_graph(12),
    "grid": lambda seed: gen.grid_graph(7, 9),
    "worst-case": lambda seed: gen.worst_case_graph(24),
    "figure1": lambda seed: gen.figure1_example(),
    "figure2": lambda seed: gen.figure2_example(),
    "er": lambda seed: gen.erdos_renyi_graph(140, 0.04, seed=seed),
    "er-with-isolated": lambda seed: gen.erdos_renyi_graph(150, 0.012, seed=seed),
    "ba": lambda seed: gen.preferential_attachment_graph(160, 3, seed=seed),
    "plc": lambda seed: gen.powerlaw_cluster_graph(130, 3, 0.3, seed=seed),
    "ws": lambda seed: gen.watts_strogatz_graph(120, 4, 0.2, seed=seed),
    "caveman": lambda seed: gen.caveman_graph(7, 6),
}

#: The families the sparse-id cells relabel.
SPARSE_FAMILIES = ("er", "ba", "worst-case", "grid")
POLICIES = ("modulo", "block", "random", "bfs")
COMMUNICATIONS = ("broadcast", "p2p")


def relabel(graph: Graph, label) -> Graph:
    """``graph`` with node ``u`` renamed ``label(u)``, node order kept."""
    return Graph.from_adjacency(
        {label(u): [label(v) for v in graph.neighbors(u)] for u in graph}
    )


def sparse(graph: Graph) -> Graph:
    """Ids spread out with gaps (13u + 5), exercising id compaction."""
    return relabel(graph, lambda u: 13 * u + 5)


def huge(graph: Graph) -> Graph:
    """Ids near 2**62, far from any array index."""
    return relabel(graph, lambda u: 2**62 + 7 * u)


#: What a replay reproduces: the coreness, these stats fields, and each
#: of the ``stats.extra`` keys the row reports — the one-to-many
#: Figure-5 accounting and partition, the Pregel counters, the h-index
#: sweeps.
STATS = (
    "rounds_executed", "execution_time", "sends_per_round",
    "total_messages", "sent_per_process", "converged",
)
EXTRA = (
    "estimates_sent_total", "estimates_sent_per_node", "cut_edges",
    "num_hosts", "supersteps", "inter_worker_messages",
    "intra_worker_messages", "combined_away", "active_per_superstep",
    "num_workers", "sweeps",
)


def observables(result) -> dict:
    stats = result.stats
    seen = {"coreness": result.coreness}
    seen.update((name, getattr(stats, name)) for name in STATS)
    seen.update((key, stats.extra[key]) for key in EXTRA if key in stats.extra)
    return seen


#: (algorithm, engine) of every row that runs an engine or takes a
#: kernel backend -> the engine whose run a stdlib run of the row must
#: replay at the same mode, seed and options, or None for a row held to
#: the oracle alone. A numpy run replays the same row on stdlib.
REFERENCE = {
    ("one-to-one", "round"): None,
    ("one-to-one", "async"): None,
    ("one-to-one", "flat"): "round",
    ("one-to-many", "round"): None,
    ("one-to-many", "async"): None,
    ("one-to-many", "flat"): "round",
    ("one-to-many", "mp"): "flat",
    ("hindex", None): None,
    ("pregel", "object"): None,
    ("pregel", "flat"): "object",
}


def cell(algorithm: str, options: dict) -> "tuple[paths.Path, dict]":
    """The row a cell runs on, and its options with the row's engine and
    mode spelled out (an alias or a left-out mode implies them)."""
    row = paths.resolve(algorithm, options)
    spelled = dict(options)
    if row.engine is not None:
        spelled["engine"] = row.engine
    if row.modes:
        spelled.setdefault("mode", row.modes[0])
    return row, spelled


def reference(row: paths.Path, options: dict) -> "dict | None":
    """The options of the run a cell on ``row`` replays, or None."""
    if options.get("backend", "stdlib") != "stdlib":
        return {**options, "backend": "stdlib"}
    engine = REFERENCE[row.algorithm, row.engine]
    if engine is None:
        return None
    target = paths.select(row.algorithm, engine)
    options = {**options, "engine": engine}
    return {name: value for name, value in options.items() if target.takes(name)}


def run(algorithm: str, graph, runs: "dict | None" = None, **options):
    """``decompose`` one cell; a fleet starts under ``fork`` unless the
    cell names a start method. ``runs`` shares the runs of identical
    cells on one graph."""
    if options.get("backend") == "numpy" and not numpy_available():
        pytest.skip("the numpy kernel backend needs numpy")
    row, options = cell(algorithm, options)
    if row.fleet:
        options.setdefault("mp_start_method", "fork")
    if runs is not None:
        key = (row.algorithm, tuple(sorted(options.items())))
        if key not in runs:
            runs[key] = run(algorithm, graph, **options)
        return runs[key]
    with warnings.catch_warnings():
        # the mp serialization-cost guard flags every test-sized run
        warnings.simplefilter("ignore", RuntimeWarning)
        return decompose(graph, algorithm, **options)


def check(algorithm: str, graph: Graph, runs: "dict | None" = None,
          **options):
    """Run one cell and the run it replays, and assert the contract.

    The observables must equal the reference's; a converged run must
    reach BZ's coreness; a one-to-one run must keep Corollary 2's
    message bound, and a lockstep one Theorem 4, Theorem 5 and
    Corollary 1's round bounds. Returns the cell's result, for the
    checks that belong to one leg.
    """
    row, options = cell(algorithm, options)
    result = run(algorithm, graph, runs, **options)
    replayed = reference(row, options)
    if replayed is not None:
        expected = run(row.algorithm, graph, runs, **replayed)
        assert observables(result) == observables(expected)
    truth = batagelj_zaversnik(graph)
    if result.stats.converged:
        assert result.coreness == truth
    if row.algorithm == "one-to-one":
        stats = result.stats
        updates = stats.total_messages - 2 * graph.num_edges
        assert updates <= theory.corollary2_message_bound(graph)
        if options["mode"] == "lockstep":
            assert stats.execution_time <= theory.theorem4_bound(graph, truth)
            assert stats.execution_time <= theory.theorem5_bound(graph)
            assert stats.execution_time <= theory.corollary1_bound(graph)
    return result


#: Every in-process (row, mode, backend) leg this environment can run.
LEGS = [
    (row, {
        name: value
        for name, value in (("engine", row.engine), ("mode", mode),
                            ("backend", backend))
        if value is not None
    })
    for row in paths.PATHS
    if not row.fleet and (row.algorithm, row.engine) in REFERENCE
    for mode in row.modes or (None,)
    for backend in row.backends or (None,)
    if backend != "numpy" or numpy_available()
]


def through_file(graph: Graph, draw) -> Graph:
    """``graph`` written by ``write_edge_list``, its lines shuffled in
    among duplicate, reversed and self-loop lines, comments and blank
    lines, and read back by ``read_edge_list(path, relabel=False)``,
    which must return its nodes and edges."""
    edges = sorted(graph.edges())
    noise = [f"{u} {v}\n" for u, v in edges] + [f"{v}\t{u}\n" for u, v in edges]
    noise += [f"{u} {u}\n" for u in graph.nodes()] + ["% note\n", "\n", " \t\n"]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_edge_list(graph, os.path.join(tmp, "graph.txt"))
        with open(path) as handle:
            lines = handle.readlines()
        lines += draw(st.lists(st.sampled_from(noise), max_size=8))
        with open(path, "w") as handle:
            handle.writelines(draw(st.permutations(lines)))
        back = read_edge_list(path, relabel=False)
    assert sorted(back.nodes()) == sorted(graph.nodes())
    assert sorted(back.edges()) == edges
    return back


@st.composite
def cells(draw):
    """A graph of ``conftest.graphs``, a star or a clique, with extra
    isolated nodes and plain, shuffled, sparse or huge ids, sometimes
    read back from a SNAP file (:func:`through_file`), and the options
    every row draws from (more hosts than nodes included)."""
    graph = draw(st.one_of(
        graphs(),
        st.integers(1, 12).map(gen.star_graph),
        st.integers(2, 9).map(gen.clique_graph),
    ))
    for _ in range(draw(st.integers(0, 2))):
        graph.add_node(graph.num_nodes)
    ids = draw(st.sampled_from(("plain", "shuffled", "sparse", "huge")))
    if ids == "shuffled":
        graph = graph.shuffled(seed=draw(st.integers(0, 5)))
    elif ids != "plain":
        graph = sparse(graph) if ids == "sparse" else huge(graph)
    if draw(st.booleans()):
        graph = through_file(graph, draw)
    n = graph.num_nodes
    communication = draw(st.sampled_from(COMMUNICATIONS))
    return graph, {
        "seed": draw(st.integers(0, 5)),
        "optimize_sends": draw(st.booleans()),
        "num_hosts": draw(st.integers(1, 8) | st.integers(n + 1, n + 3)),
        "policy": draw(st.sampled_from(POLICIES)),
        "communication": communication,
        "use_worklist": draw(st.booleans()),
        "num_workers": draw(st.integers(1, 6)),
        "use_combiner": draw(st.booleans()),
    }


def replay(example, algorithm: "str | None" = None, **match) -> None:
    """:func:`check` one drawn :func:`cells` example on every leg of
    :data:`LEGS` running ``algorithm`` whose options include ``match``
    (all legs by default); a leg takes the drawn options its row takes,
    and identical cells share one run."""
    if match.get("backend") == "numpy" and not numpy_available():
        pytest.skip("the numpy kernel backend needs numpy")
    graph, options = example
    runs: dict = {}
    for row, leg in LEGS:
        if algorithm in (None, row.algorithm) and match.items() <= leg.items():
            taken = {k: v for k, v in options.items() if row.takes(k)}
            check(row.algorithm, graph, runs, **leg, **taken)
    assert runs, "no leg matches"


#: The kernel backend that built the CSR the streaming engine starts
#: from. The engine runs no kernel, but ``read_edge_list`` builds a file
#: of at least ``NUMPY_MIN_PAIRS`` lines on numpy (the
#: ``overlay-joinleave`` workload's file) and a shorter one on the
#: stdlib.
BUILDS = ("stdlib", "numpy")


def seeded(graph: "Graph | None", build: str):
    """What the streaming engine is handed: ``graph`` itself on the
    stdlib build, or the CSR the ``build`` backend's ``csr_from_edges``
    kernel makes of it (``None`` is the empty graph; a self-loop per
    node keeps the isolated ones, as it does in a file)."""
    if build == "stdlib":
        return graph
    if not numpy_available():
        pytest.skip("the numpy kernel backend needs numpy")
    pairs = [*graph.edges(), *((u, u) for u in graph)] if graph else []
    us, vs = array("q", [u for u, _ in pairs]), array("q", [v for _, v in pairs])
    return CSRGraph(*resolve_backend(build).csr_from_edges(us, vs))


def check_churn(graph: "Graph | None", events, batch: int,
                build: str = "stdlib") -> FlatDynamicKCore:
    """Replay ``events`` on a :class:`FlatDynamicKCore` seeded from
    ``build`` (:func:`seeded`), ``batch`` events per ``apply_events``
    call, and one at a time on the :class:`DynamicKCore` oracle, both
    through :func:`~repro.workloads.churn.apply_event`.

    After every call both sides raised the same error type, or none, at
    the same event and counted the same ``edits_applied``; the flat
    engine and the oracle hold the same coreness, which is BZ's; and the
    engine's k-order and its dynamic CSR pass ``check_invariants()``.
    As in :class:`~repro.streaming.ChurnService`, an event that raises
    is dropped and the rest of its batch is the next call. At the end
    both hold the same graph. Returns the flat engine.
    """
    flat = FlatDynamicKCore(seeded(graph, build))
    oracle = DynamicKCore(graph)

    def one_at_a_time(rest):
        for event in rest:
            apply_event(oracle, event)

    for at in range(0, len(events), batch):
        pending = events[at:at + batch]
        while pending:
            outcomes = []
            for apply in (flat.apply_events, one_at_a_time):
                rest = iter(pending)
                try:
                    apply(rest)
                    error = None
                except ReproError as exc:
                    error = type(exc)
                outcomes.append((error, list(rest)))
            assert outcomes[0] == outcomes[1], f"batch at event {at}"
            assert flat.metrics["edits_applied"] == \
                oracle.metrics["edits_applied"], f"batch at event {at}"
            pending = outcomes[0][1]
            truth = batagelj_zaversnik(oracle.graph)
            assert flat.coreness == oracle.coreness == truth, (
                f"divergence in the batch at event {at}"
            )
            flat.check_invariants()
            flat.graph.check_invariants()
    assert flat.graph.to_graph() == oracle.graph
    return flat


@st.composite
def churn_cells(draw, batch: "int | None" = None, kinds=tuple(ARITY)):
    """A :func:`cells` graph, an edit trace over it and a batch size of
    1-8 (or ``batch``), for :func:`check_churn` on either build.

    Events name present nodes, nodes that left and a node never seen; a
    join may name a known node (present or gone), a join or link may
    name a node twice, unlinks mostly name edges the trace has seen,
    and half the traces of all ``kinds`` carry one event of an unknown
    kind. Ids stay inside int64; out-of-range ids have their own tests.
    """
    graph, _ = draw(cells())
    known = sorted(graph.nodes())
    edges = sorted(graph.edges())
    fresh = known[-1] + 1 if known else 0
    events = []
    for time in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(kinds))
        node = st.sampled_from(known + [fresh])
        if kind == "join":
            new = draw(node) if draw(st.booleans()) else fresh
            if new == fresh:
                known.append(fresh)
                fresh += 1
            contacts = draw(st.lists(st.sampled_from(known + [fresh]), max_size=3))
            nodes = (new, *contacts)
            edges += [(new, c) for c in contacts]
        elif kind == "leave":
            nodes = (draw(node),)
        elif kind == "unlink" and edges and draw(st.booleans()):
            nodes = draw(st.sampled_from(edges))
        else:
            nodes = (draw(node), draw(node))
            if kind == "link":
                edges.append(nodes)
        events.append(ChurnEvent(float(time), kind, nodes))
    if kinds == tuple(ARITY) and draw(st.booleans()):
        at = draw(st.integers(0, len(events)))
        pair = draw(st.sampled_from(edges)) if edges else (0, 1)
        events.insert(at, ChurnEvent(float(at), "merge", pair))
    return graph, events, batch or draw(st.integers(1, 8))
