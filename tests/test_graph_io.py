"""Tests for SNAP edge-list I/O."""

from __future__ import annotations

import gzip
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.graph.io as graph_io
from repro.errors import GraphIOError
from repro.graph import generators as gen
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.io import parse_edge_lines, read_edge_list, write_edge_list

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


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
    suppress_health_check=[HealthCheck.function_scoped_fixture],
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
