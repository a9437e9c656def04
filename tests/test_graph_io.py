"""Tests for SNAP edge-list I/O."""

from __future__ import annotations

import gzip
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.graph.csr as csr_module
import repro.graph.io as graph_io
import repro.sim.kernels as kernels
from repro.errors import GraphIOError
from repro.sim.kernels import numpy_available
from repro.graph import generators as gen
from repro.graph.csr import NUMPY_MIN_PAIRS, CSRGraph
from repro.graph.graph import Graph
from repro.graph.io import parse_edge_lines, read_edge_list, write_edge_list

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

BACKENDS = (
    "stdlib",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="needs numpy"),
    ),
)


class TestParsing:
    def test_comments_and_blanks_skipped(self):
        lines = [
            "# Directed graph: web-Example.txt",
            "# Nodes: 3 Edges: 2",
            "",
            "% percent comments too",
            "0\t1",
            "1\t2",
        ]
        assert list(parse_edge_lines(lines)) == [(0, 1), (1, 2)]

    def test_whitespace_variants(self):
        assert list(parse_edge_lines(["0 1", "2   3", " 4\t5 "])) == [
            (0, 1), (2, 3), (4, 5),
        ]

    def test_extra_fields_tolerated(self):
        # some SNAP files carry weights/timestamps in a third column
        assert list(parse_edge_lines(["0 1 0.5"])) == [(0, 1)]

    def test_single_field_rejected(self):
        with pytest.raises(GraphIOError):
            list(parse_edge_lines(["42"]))

    def test_non_integer_rejected(self):
        with pytest.raises(GraphIOError):
            list(parse_edge_lines(["a b"]))


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        graph = gen.powerlaw_cluster_graph(80, 3, 0.2, seed=1)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path, relabel=False)
        assert loaded == graph

    def test_read_relabels_sparse_ids(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("1000\t2000\n2000\t5\n")
        graph = read_edge_list(path)
        assert sorted(graph.nodes()) == [0, 1, 2]
        assert graph.num_edges == 2

    def test_directed_input_symmetrised(self, tmp_path):
        path = tmp_path / "directed.txt"
        path.write_text("0\t1\n1\t0\n1\t2\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2  # paper: both directions -> one edge

    def test_self_loops_dropped_but_node_kept(self, tmp_path):
        path = tmp_path / "loops.txt"
        path.write_text("0\t0\n0\t1\n")
        graph = read_edge_list(path, relabel=False)
        assert graph.num_edges == 1
        assert graph.has_node(0)

    def test_gzip_support(self, tmp_path):
        path = tmp_path / "graph.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("0\t1\n1\t2\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2

    def test_header_contents(self, tmp_path):
        graph = gen.path_graph(3, name="demo")
        path = tmp_path / "out.txt"
        write_edge_list(graph, path)
        text = path.read_text()
        assert text.startswith("# Undirected graph: demo")
        assert "# Nodes: 3 Edges: 2" in text

    def test_headerless_write(self, tmp_path):
        graph = gen.path_graph(3)
        path = tmp_path / "bare.txt"
        write_edge_list(graph, path, header=False)
        assert path.read_text() == "0\t1\n1\t2\n"

    def test_coreness_preserved_through_roundtrip(self, tmp_path):
        from repro.baselines import batagelj_zaversnik

        graph = gen.worst_case_graph(15)
        path = tmp_path / "worst.txt"
        write_edge_list(graph, path)
        loaded = read_edge_list(path, relabel=False)
        assert batagelj_zaversnik(loaded) == batagelj_zaversnik(graph)


class TestErrorsNameTheFile:
    def test_bad_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n1 2\n1 x\n")
        with pytest.raises(GraphIOError) as info:
            read_edge_list(path)
        assert str(info.value) == f"{path}:3: non-integer node id in '1 x'"

    def test_short_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1 2\n\n  42  \n")
        with pytest.raises(GraphIOError, match=r"short\.txt:3: expected two fields"):
            read_edge_list(path)

    @pytest.mark.parametrize("big", [INT64_MAX + 1, INT64_MIN - 1])
    def test_ids_outside_int64_rejected(self, tmp_path, big):
        path = tmp_path / "huge.txt"
        path.write_text(f"1 2\n3 {big}\n")
        with pytest.raises(GraphIOError, match=r"huge\.txt:2: node id outside"):
            read_edge_list(path)

    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize(
        "data,block,where,reason",
        [
            (b"0 1\n1 2\n\xff 3\n", None, 3, "0xff as UTF-8 (invalid start byte)"),
            # past the first block, in a comment line, after CRLF lines
            (
                b"".join(b"%d %d\r\n" % (i, i + 1) for i in range(40))
                + b"# caf\xe9\n40 41\n",
                16,
                41,
                "0xe9 as UTF-8 (invalid continuation byte)",
            ),
        ],
        ids=["first-block", "later-block-comment"],
    )
    def test_undecodable_byte_names_path_and_line(
        self, tmp_path, gz, data, block, where, reason
    ):
        path = str(tmp_path / ("bytes.txt.gz" if gz else "bytes.txt"))
        with (gzip.open if gz else open)(path, "wb") as handle:
            handle.write(data)
        with mock.patch.object(graph_io, "_BLOCK_CHARS", block or graph_io._BLOCK_CHARS):
            with pytest.raises(GraphIOError) as info:
                read_edge_list(path)
        assert str(info.value) == f"{path}:{where}: can't decode byte {reason}"

    @pytest.mark.parametrize("suffix", [".txt", ".txt.gz"])
    def test_empty_file(self, tmp_path, suffix):
        path = tmp_path / f"empty{suffix}"
        if suffix.endswith(".gz"):
            with gzip.open(path, "wb"):
                pass
        else:
            path.write_text("")
        graph = read_edge_list(path)
        assert graph.num_nodes == 0 and graph.num_edges == 0
        assert graph.name == path.name


# ----------------------------------------------------------------------
# differential: the one-pass reader against the two-step reference
# ----------------------------------------------------------------------
def _reference(path: str, relabel: bool) -> Graph:
    """The former reader: parse line by line into a dict-of-sets graph,
    then rebuild it relabelled."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as handle:
        graph = Graph.from_edges(
            parse_edge_lines(handle), name=os.path.basename(path)
        )
    return graph.relabeled()[0] if relabel else graph


_ids = st.one_of(
    st.integers(0, 12),  # dense: duplicates, reverse edges, self-loops
    st.integers(-40, 40),  # negative
    st.integers(0, 10**12),  # sparse
    st.sampled_from([INT64_MIN, INT64_MAX, 1 << 40, -(1 << 40)]),
)
_gaps = st.sampled_from([" ", "\t", "  ", " \t ", "\t\t"])
_indents = st.sampled_from(["", "", " ", "\t", "  "])


@st.composite
def _edge_lines(draw, extra_columns: bool = True):
    fields = [str(draw(_ids)), str(draw(_ids))]
    if extra_columns:
        # integer extras keep the token count plausible for the bulk split
        fields += draw(st.lists(
            st.one_of(_ids.map(str), st.sampled_from(["0.5", "x", "#", "\x00"])),
            max_size=3,
        ))
    line = draw(_indents) + fields[0]
    for field in fields[1:]:
        line += draw(_gaps) + field
    return line + draw(st.sampled_from(["", "", " ", "\t"]))


_comment_lines = st.builds(
    lambda indent, mark, body: indent + mark + body,
    _indents,
    st.sampled_from("#%"),
    st.text(alphabet="ab 019:\t#%", max_size=10),
)
_blank_lines = st.sampled_from(["", " ", "\t", " \t "])
_lines = st.one_of(
    # every irregularity at once
    st.lists(
        st.one_of(_edge_lines(), _edge_lines(), _comment_lines, _blank_lines),
        max_size=40,
    ),
    # the common SNAP shape: comments, then two fields per line
    st.builds(
        lambda head, body: head + body,
        st.lists(_comment_lines, max_size=3),
        st.lists(_edge_lines(extra_columns=False), max_size=40),
    ),
)
_bad_lines = st.sampled_from(
    ["7", "  3  ", "1 x", "x 1", "1.5 2", "0x1 2", "1\x00 2", "1\x002"]
)
_file_cases = settings(
    max_examples=60,
    deadline=None,
    # a subclass reruns these tests with the numpy parse forced
    suppress_health_check=[
        HealthCheck.function_scoped_fixture, HealthCheck.differing_executors
    ],
)


def _write(tmp_path, lines, eol: str, final_eol: bool, gz: bool) -> str:
    text = eol.join(lines) + (eol if lines and final_eol else "")
    path = str(tmp_path / ("graph.txt.gz" if gz else "graph.txt"))
    opener = gzip.open if gz else open
    with opener(path, "wb") as handle:
        handle.write(text.encode("utf-8"))
    return path


class TestOnePassReaderMatchesReference:
    @_file_cases
    @given(
        lines=_lines,
        eol=st.sampled_from(["\n", "\r\n"]),
        final_eol=st.booleans(),
        gz=st.booleans(),
        block=st.sampled_from([1, 3, 16, graph_io._BLOCK_CHARS]),
    )
    # line widths that do / do not keep the bulk split at three tokens
    # per line, so only int() or only the token count rejects the block
    @example(["1 2 3 4 5", "", "", "7 8 9"], "\n", True, False, 1 << 18)
    @example(["1 2 3 4 5"], "\n", True, False, 1 << 18)
    @example(["1 2 3 4", "", "% c"], "\r\n", False, True, 1 << 18)
    def test_same_graph(self, tmp_path, lines, eol, final_eol, gz, block):
        path = _write(tmp_path, lines, eol, final_eol, gz)
        for relabel in (True, False):
            with mock.patch.object(graph_io, "_BLOCK_CHARS", block):
                graph = read_edge_list(path, relabel=relabel)
            expected = _reference(path, relabel)
            # the held CSR is what the reference graph compacts to
            csr, want = CSRGraph.from_graph(graph), CSRGraph.from_graph(expected)
            assert csr.offsets == want.offsets
            assert csr.targets == want.targets
            assert csr.ids == want.ids
            assert graph == expected
            # relabelled: ascending 0..N-1; otherwise first appearance
            assert list(graph.nodes()) == list(expected.nodes())
            assert graph.num_edges == expected.num_edges
            assert graph.name == expected.name

    @_file_cases
    @given(
        lines=_lines,
        bad=_bad_lines,
        at=st.integers(0, 40),
        eol=st.sampled_from(["\n", "\r\n"]),
        gz=st.booleans(),
        block=st.sampled_from([1, 3, 16, graph_io._BLOCK_CHARS]),
    )
    def test_bad_line_at_same_line(self, tmp_path, lines, bad, at, eol, gz, block):
        lines.insert(min(at, len(lines)), bad)
        path = _write(tmp_path, lines, eol, True, gz)
        with pytest.raises(GraphIOError) as expected:
            _reference(path, relabel=True)
        with mock.patch.object(graph_io, "_BLOCK_CHARS", block):
            with pytest.raises(GraphIOError) as got:
                read_edge_list(path)
        # the reference says "line N: reason", the reader "path:N: reason"
        assert str(got.value) == f"{path}:{str(expected.value)[len('line '):]}"


@pytest.mark.skipif(not numpy_available(), reason="needs numpy")
class TestOnePassReaderMatchesReferenceOnNumpy(TestOnePassReaderMatchesReference):
    """The same differential with every block parsed on numpy (the size
    rule's threshold lowered to 0): blocks the numpy kernel turns down
    fall through to the stdlib kernel and the line loop, so the graph
    and every ``path:line`` error are the same."""

    @pytest.fixture(autouse=True)
    def _parse_on_numpy(self, monkeypatch):
        monkeypatch.setattr(csr_module, "NUMPY_MIN_PAIRS", 0)


class TestCSRFromGraph:
    """``from_graph`` (contiguous fast path and sparse path) must build
    exactly what ``from_edges`` builds from the same edges."""

    @settings(max_examples=60, deadline=None)
    @given(edges=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60))
    def test_contiguous_ids(self, edges):
        csr = CSRGraph.from_graph(Graph.from_edges(edges, num_nodes=16))
        expected = CSRGraph.from_edges(edges, num_nodes=16)
        assert csr.offsets == expected.offsets
        assert csr.targets == expected.targets
        assert csr.ids == expected.ids

    @settings(max_examples=60, deadline=None)
    @given(edges=st.lists(st.tuples(_ids, _ids), max_size=60))
    def test_sparse_ids(self, edges):
        csr = CSRGraph.from_graph(Graph.from_edges(edges))
        expected = CSRGraph.from_edges(edges)
        assert csr.offsets == expected.offsets
        assert csr.targets == expected.targets
        assert csr.ids == expected.ids
        assert [csr.index(u) for u in csr.ids] == list(range(csr.num_nodes))


# ----------------------------------------------------------------------
# the read graph holds its CSR and builds adjacency sets on first use
# ----------------------------------------------------------------------
_FILE_EDGES = "# header\n7 3\n3 7\n3 9\n9 9\n12 7\n9 12\n40 41\n"


def _buffers(csr: CSRGraph) -> tuple:
    return (csr.offsets, csr.targets, csr.ids, csr.name)


def _sets_built(graph: Graph) -> bool:
    return "_adj" in vars(graph)


#: Every mutator, applied to a read graph and to its reference alike;
#: node ids are picked from the graph so they exist in both modes.
MUTATIONS = {
    "add_node_new": lambda g, nodes: g.add_node(1000),
    "add_node_existing": lambda g, nodes: g.add_node(nodes[0]),
    "add_edge_new": lambda g, nodes: g.add_edge(nodes[0], nodes[-1]),
    "add_edge_to_new_node": lambda g, nodes: g.add_edge(nodes[1], 2000),
    "add_edge_duplicate": lambda g, nodes: g.add_edge(
        nodes[0], sorted(g.neighbors(nodes[0]))[0], strict=False
    ),
    "remove_edge": lambda g, nodes: g.remove_edge(
        nodes[0], sorted(g.neighbors(nodes[0]))[0]
    ),
    "remove_node": lambda g, nodes: g.remove_node(nodes[1]),
}


class TestReadGraphHoldsCSR:
    @pytest.fixture
    def path(self, tmp_path) -> str:
        path = tmp_path / "small.txt"
        path.write_text(_FILE_EDGES)
        return str(path)

    @pytest.mark.parametrize("relabel", [True, False])
    def test_cheap_reads_build_no_sets(self, path, relabel):
        graph = read_edge_list(path, relabel=relabel)
        expected = _reference(path, relabel)
        assert type(graph) is Graph
        assert list(graph.nodes()) == list(expected.nodes())
        assert list(graph) == list(expected)
        assert (graph.num_nodes, graph.num_edges, len(graph)) == (
            expected.num_nodes, expected.num_edges, len(expected)
        )
        for node in [*expected.nodes(), 5, -1, 10**30, "x"]:
            assert (node in graph) == (node in expected)
        assert CSRGraph.from_graph(graph) is CSRGraph.from_graph(graph)
        assert not _sets_built(graph)

    @pytest.mark.parametrize("relabel", [True, False])
    def test_other_reads_build_the_sets_once(self, path, relabel):
        graph = read_edge_list(path, relabel=relabel)
        expected = _reference(path, relabel)
        held = CSRGraph.from_graph(graph)
        node = next(iter(expected.nodes()))
        assert graph.neighbors(node) == expected.neighbors(node)
        assert _sets_built(graph)
        sets = graph._adj
        assert sorted(graph.edges()) == sorted(expected.edges())
        assert graph.degrees() == expected.degrees()
        assert graph.sorted_neighbors(node) == expected.sorted_neighbors(node)
        assert graph._adj is sets
        # reading is not mutating: the CSR is still handed back
        assert CSRGraph.from_graph(graph) is held

    @pytest.mark.parametrize("relabel", [True, False])
    def test_long_file_matches_reference(self, tmp_path, relabel):
        # long enough for the numpy build wherever numpy is importable
        rng = random.Random(5)
        ids = [rng.randrange(-(10**12), 10**12) for _ in range(4000)]
        lines = [f"{rng.choice(ids)}\t{rng.choice(ids)}" for _ in range(NUMPY_MIN_PAIRS)]
        path = tmp_path / "long.txt"
        path.write_text("\n".join(lines) + "\n")
        graph = read_edge_list(path, relabel=relabel)
        expected = _reference(str(path), relabel)
        csr, want = CSRGraph.from_graph(graph), CSRGraph.from_graph(expected)
        assert (csr.offsets, csr.targets, csr.ids) == (want.offsets, want.targets, want.ids)
        assert list(graph.nodes()) == list(expected.nodes())
        assert graph == expected

    def test_renamed_csr_shares_the_buffers(self, path):
        graph = read_edge_list(path)
        held = CSRGraph.from_graph(graph)
        renamed = CSRGraph.from_graph(graph, name="other")
        assert renamed.name == "other"
        assert renamed.offsets is held.offsets and renamed.ids is held.ids
        graph.name = "again"
        assert CSRGraph.from_graph(graph).name == "again"

    def test_renamed_graph_builds_companions_once(self, path, monkeypatch):
        from repro.baselines import batagelj_zaversnik
        from repro.core.api import decompose
        from repro.sim.kernels import StdlibBackend

        build = StdlibBackend.csr_companions
        builds: list[int] = []

        def spy(self, offsets, targets):
            builds.append(len(targets))
            return build(self, offsets, targets)

        monkeypatch.setattr(StdlibBackend, "csr_companions", spy)
        graph = read_edge_list(path)
        renamed = graph.copy(name="renamed")
        runs = [decompose(renamed, "one-to-one-flat").coreness for _ in range(3)]
        assert runs[0] == runs[1] == runs[2] == batagelj_zaversnik(_reference(path, True))
        assert len(builds) == 1
        # every view of the held CSR reads the same companions and index
        held, view = CSRGraph.from_graph(graph), CSRGraph.from_graph(renamed)
        assert view.name == "renamed" and view is not held
        assert view.mirror() is held.mirror()
        assert view.edge_owners() is held.edge_owners()
        assert held._index_of is None
        assert view.index(3) == 3 and held._index_of is not None
        assert len(builds) == 1

    @pytest.mark.parametrize("relabel", [True, False])
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_drops_the_csr(self, path, relabel, mutation):
        graph = read_edge_list(path, relabel=relabel)
        expected = _reference(path, relabel)
        before = _buffers(CSRGraph.from_graph(graph))
        nodes = list(expected.nodes())
        MUTATIONS[mutation](graph, nodes)
        MUTATIONS[mutation](expected, nodes)
        assert list(graph.nodes()) == list(expected.nodes())
        assert graph == expected
        assert graph.num_edges == expected.num_edges
        assert _buffers(CSRGraph.from_graph(graph)) == _buffers(
            CSRGraph.from_graph(expected)
        )
        # the held CSR itself was never written
        assert _buffers(CSRGraph.from_graph(read_edge_list(path, relabel=relabel))) == before

    @pytest.mark.parametrize("built", [False, True])
    @pytest.mark.parametrize("relabel", [True, False])
    def test_copy_and_pickle_equal_the_source(self, path, relabel, built):
        import pickle

        graph = read_edge_list(path, relabel=relabel)
        if built:
            graph.neighbors(next(iter(graph.nodes())))
        for twin in (graph.copy(), pickle.loads(pickle.dumps(graph))):
            assert type(twin) is Graph
            assert twin == graph
            assert list(twin.nodes()) == list(graph.nodes())
            assert (twin.name, twin.num_edges) == (graph.name, graph.num_edges)
            assert _buffers(CSRGraph.from_graph(twin)) == _buffers(
                CSRGraph.from_graph(graph)
            )
        # a copy is independent of its source
        dup = graph.copy()
        dup.remove_node(next(iter(dup.nodes())))
        assert graph == read_edge_list(path, relabel=relabel)
        assert dup.num_nodes == graph.num_nodes - 1


class TestNoConsumerWritesTheHeldCSR:
    """The flat paths run straight on the read graph's CSR buffers, so
    none of them may write into them."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory) -> str:
        path = tmp_path_factory.mktemp("held") / "social.txt"
        write_edge_list(gen.powerlaw_cluster_graph(240, 3, 0.3, seed=5), path)
        return str(path)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # mp on a small graph
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "algorithm, options",
        [
            ("one-to-one-flat", {}),
            ("one-to-many-flat", {"num_hosts": 4}),
            ("one-to-many-mp", {"num_hosts": 2}),
        ],
    )
    def test_decompose(self, path, algorithm, options, backend):
        from repro.baselines import batagelj_zaversnik
        from repro.core.api import decompose

        graph = read_edge_list(path)
        result = decompose(graph, algorithm, backend=backend, **options)
        fresh = read_edge_list(path)
        assert _buffers(CSRGraph.from_graph(graph)) == _buffers(
            CSRGraph.from_graph(fresh)
        )
        assert not _sets_built(graph)
        assert result.coreness == batagelj_zaversnik(fresh)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_churn_service(self, path, backend, monkeypatch):
        from repro.streaming import ChurnService
        from repro.workloads.churn import generate_churn_trace

        # the service runs no kernel; ``backend`` builds the CSR it is
        # handed, as a file of NUMPY_MIN_PAIRS lines builds on numpy
        if backend == "numpy":
            monkeypatch.setattr(csr_module, "NUMPY_MIN_PAIRS", 0)
        graph = read_edge_list(path)
        service = ChurnService(graph, batch_size=16)
        events = generate_churn_trace(read_edge_list(path), 60.0, seed=3).events
        assert len(events) >= 16
        service.submit(events[:16])
        assert service.batches_applied == 1 and service.verify()
        assert _buffers(CSRGraph.from_graph(graph)) == _buffers(
            CSRGraph.from_graph(read_edge_list(path))
        )
        assert not _sets_built(graph)


# ----------------------------------------------------------------------
# which backend parses a block
# ----------------------------------------------------------------------
def _write_snap(path, lines: int) -> None:
    """A headed SNAP file of ``lines`` lines in all. Its edges repeat a
    20,000-edge cycle, so the CSR stays below ``NUMPY_MIN_PAIRS`` slots
    and only the parse and the build of the pairs see the file's size."""
    header = "# Undirected graph: cycle\n# Nodes: 20000 Edges: 20000\n# FromNodeId\tToNodeId\n"
    body = "".join(
        f"{k % 20000}\t{(k + 1) % 20000}\n" for k in range(lines - 3)
    )
    Path(path).write_text(header + body)


class TestParseSelection:
    """A block parses on numpy only when numpy is importable and the
    lines read so far, the block's own included, reach
    ``NUMPY_MIN_PAIRS`` (the CSR build's size rule)."""

    @staticmethod
    def _parses(path, monkeypatch) -> list[tuple[str, int, bool]]:
        """``(backend, lines, accepted)`` of every ``parse_edge_block``
        call while ``path`` is read; the graph must match the reference."""
        calls: list[tuple[str, int, bool]] = []
        for name in kernels.available_backends():
            cls = type(kernels.resolve_backend(name))

            def spy(self, text, parse=cls.parse_edge_block):
                columns = parse(self, text)
                calls.append((self.name, text.count("\n"), columns is not None))
                return columns

            monkeypatch.setattr(cls, "parse_edge_block", spy)
        graph = read_edge_list(path)
        assert graph == _reference(str(path), relabel=True)
        return calls

    def test_small_file_parses_on_stdlib(self, tmp_path, monkeypatch):
        path = tmp_path / "small.txt"
        _write_snap(path, NUMPY_MIN_PAIRS - 1)
        assert self._parses(path, monkeypatch) == [
            ("stdlib", NUMPY_MIN_PAIRS - 4, True)
        ]

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_large_file_parses_on_numpy_from_its_first_block(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "large.txt"
        _write_snap(path, NUMPY_MIN_PAIRS)
        assert self._parses(path, monkeypatch) == [
            ("numpy", NUMPY_MIN_PAIRS - 3, True)
        ]

    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    def test_numpy_from_the_block_that_reaches_the_threshold(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "blocks.txt"
        _write_snap(path, NUMPY_MIN_PAIRS + 20000)
        monkeypatch.setattr(graph_io, "_BLOCK_CHARS", 1 << 18)
        calls = self._parses(path, monkeypatch)
        read = 0
        for backend, lines, accepted in calls:
            read += lines + (3 if read == 0 else 0)  # the stripped header
            assert accepted
            assert backend == ("numpy" if read >= NUMPY_MIN_PAIRS else "stdlib")
        assert calls[0][0] == "stdlib" and calls[-1][0] == "numpy"

    def test_without_numpy_parses_on_stdlib(self, tmp_path, monkeypatch):
        path = tmp_path / "large.txt"
        _write_snap(path, NUMPY_MIN_PAIRS)
        monkeypatch.setattr(kernels, "numpy_available", lambda: False)
        assert self._parses(path, monkeypatch) == [
            ("stdlib", NUMPY_MIN_PAIRS - 3, True)
        ]

    def test_small_read_imports_no_numpy(self, tmp_path):
        path = tmp_path / "small.txt"
        _write_snap(path, NUMPY_MIN_PAIRS - 1)
        code = (
            "import sys\n"
            "from repro import decompose\n"
            "from repro.graph.io import read_edge_list\n"
            f"g = read_edge_list({str(path)!r})\n"
            "decompose(g, 'one-to-one-flat')\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr


class TestBlankLinesStayOnTheKernels:
    """An empty line anywhere in a block, after its last comment line
    included, is stripped before the parse kernels see the block, and a
    block turned down for a line of blanks alone is stripped and parsed
    again: neither sends the block to the line loop. The file has about
    the length of the e2e ``social-1to1`` edge list (three blocks)."""

    LINES = 250_000
    AT = 150_000

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory) -> dict[str, str]:
        rng = random.Random(11)
        body = [
            f"{rng.randrange(50_000)}\t{rng.randrange(50_000)}\n"
            for _ in range(self.LINES)
        ]
        header = "# Undirected graph\n# FromNodeId\tToNodeId\n"
        texts = {
            "clean": body,
            "trailing": [*body, "\n"],
            "middle": [*body[:self.AT], "\n", *body[self.AT:]],
            "blanks": [*body[:self.AT], " \t\n", *body[self.AT:]],
        }
        root = tmp_path_factory.mktemp("blank")
        paths = {}
        for name, lines in texts.items():
            paths[name] = str(root / f"{name}.txt")
            Path(paths[name]).write_text(header + "".join(lines))
        return paths

    @pytest.fixture(scope="class")
    def clean(self, files):
        return self._arrays(read_edge_list(files["clean"]))

    @staticmethod
    def _arrays(graph):
        csr = CSRGraph.from_graph(graph)
        return csr.offsets, csr.targets, csr.ids

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("variant", ["trailing", "middle", "blanks"])
    def test_parses_on_a_kernel(self, files, clean, variant, backend,
                                monkeypatch):
        if backend == "stdlib":
            monkeypatch.setattr(kernels, "numpy_available", lambda: False)
        lines: list[int] = []

        def spy(raw, lineno, source):
            lines.append(lineno)
            return parse_line(raw, lineno, source)

        parse_line = graph_io._parse_line
        monkeypatch.setattr(graph_io, "_parse_line", spy)
        assert self._arrays(read_edge_list(files[variant])) == clean
        assert not lines, f"{len(lines)} lines went to the line loop"

    # timed where a file this long parses, as in the e2e benchmark: on
    # numpy (a stdlib read of it takes about four times as long)
    @pytest.mark.skipif(not numpy_available(), reason="needs numpy")
    @pytest.mark.parametrize("variant", ["trailing", "middle"])
    def test_read_costs_at_most_a_quarter_more(self, files, variant):
        import time

        best = {"clean": float("inf"), variant: float("inf")}
        for rep in range(6):
            for name in best:
                t0 = time.perf_counter()
                read_edge_list(files[name])
                took = time.perf_counter() - t0
                if rep:  # the first pass warms the page cache
                    best[name] = min(best[name], took)
        assert best[variant] <= 1.25 * best["clean"], best
