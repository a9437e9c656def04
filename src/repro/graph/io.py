"""Edge-list I/O in the SNAP format used by the paper's datasets.

The Stanford Large Network Dataset collection ships plain-text edge
lists: ``#``-prefixed comment lines followed by one ``src<TAB>dst`` pair
per line. Directed inputs are symmetrised exactly as the paper does
("considering both directions for each link"). The loader tolerates
whitespace variations, duplicate edges and self-loops, and can relabel
nodes to the contiguous ``0..N-1`` range the modulo assignment policy
expects.

:func:`read_edge_list` makes one pass over the file. It parses bounded
blocks of lines into two ``array('q')`` endpoint buffers and hands them
to the kernel layer's CSR build (on numpy for long files wherever numpy
is importable, see :mod:`repro.graph.csr`). The returned :class:`Graph` holds that
:class:`CSRGraph` and builds its adjacency sets only when a caller
first needs them, so the flat engines run on the loader's CSR as is.
"""

from __future__ import annotations

import gzip
import os
import re
from array import array
from itertools import chain
from typing import Iterable, Iterator, TextIO

from repro.errors import GraphIOError
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph

__all__ = ["read_edge_list", "write_edge_list", "parse_edge_lines"]

#: Characters read per block; blocks are cut back to a line boundary.
_BLOCK_CHARS = 1 << 18

#: Comment lines and blank lines, each with its newline.
_NOISE = re.compile(r"^[^\S\n]*(?:[#%][^\n]*)?\n", re.MULTILINE)

#: Stands in for each newline so one ``split()`` keeps line structure;
#: ``int()`` rejects it.
_EOL = "\x00"


def _open_text(path: str | os.PathLike[str]) -> TextIO:
    path = os.fspath(path)
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _parse_line(raw: str, lineno: int, source: str | None) -> tuple[int, int] | None:
    """The ``(u, v)`` pair of one line, or ``None`` for a comment/blank."""
    line = raw.strip()
    if not line or line[0] in "#%":
        return None
    parts = line.split()
    if len(parts) < 2:
        reason = "expected two fields, got"
    else:
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            reason = "non-integer node id in"
    where = f"{source}:{lineno}" if source else f"line {lineno}"
    raise GraphIOError(f"{where}: {reason} {line!r}")


def parse_edge_lines(lines: Iterable[str]) -> Iterator[tuple[int, int]]:
    """Yield ``(u, v)`` pairs from SNAP-style text lines.

    Comment lines (``#`` or ``%``) and blank lines are skipped; anything
    else must start with two integer fields.
    """
    for lineno, raw in enumerate(lines, start=1):
        pair = _parse_line(raw, lineno, None)
        if pair is not None:
            yield pair


def _blocks(handle: TextIO) -> Iterator[tuple[int, str]]:
    """``(first line number, text)`` chunks, each ending in a newline."""
    lineno = 1
    tail = ""
    while True:
        chunk = handle.read(_BLOCK_CHARS)
        if not chunk:
            break
        chunk = tail + chunk
        cut = chunk.rfind("\n") + 1
        tail = chunk[cut:]
        if cut:
            yield lineno, chunk[:cut]
            lineno += chunk.count("\n")
    if tail:
        yield lineno, tail + "\n"


def _parse_block(text: str, lineno: int, source: str) -> tuple[array, array]:
    """The two endpoint columns of one block of whole lines.

    The fast path is one ``split()`` over the block with each newline
    turned into an ``_EOL`` token, so lines of exactly two fields give
    ``(u, v, _EOL)`` triples. A line of any other width either changes
    the token count or pushes an ``_EOL`` into an endpoint column, where
    ``int()`` rejects it.
    """
    data = _NOISE.sub("", text) if "#" in text or "%" in text else text
    tokens = data.replace("\n", f" {_EOL} ").split()
    if len(tokens) == 3 * data.count("\n"):
        try:
            return (
                array("q", map(int, tokens[0::3])),
                array("q", map(int, tokens[1::3])),
            )
        except (ValueError, OverflowError):
            pass
    # blank lines, extra columns or a bad line: go line by line, which
    # also names the first bad line
    us, vs = array("q"), array("q")
    for number, raw in enumerate(text.split("\n"), lineno):
        pair = _parse_line(raw, number, source)
        if pair is None:
            continue
        try:
            us.append(pair[0])
            vs.append(pair[1])
        except OverflowError:
            raise GraphIOError(
                f"{source}:{number}: node id outside the signed 64-bit "
                f"range in {raw.strip()!r}"
            ) from None
    return us, vs


def read_edge_list(
    path: str | os.PathLike[str],
    relabel: bool = True,
    name: str | None = None,
) -> Graph:
    """Read a SNAP edge-list file into an undirected :class:`Graph`.

    ``relabel`` renumbers nodes to ``0..N-1`` in ascending order of
    their ids (the default, since SNAP ids are sparse); the original ids
    are discarded. Without it, nodes keep their ids in order of first
    appearance. Self-loops and duplicate/reverse edges collapse into
    single undirected edges, but a self-loop still makes its node exist.
    Node ids must fit in a signed 64-bit integer. A bad line raises
    :class:`GraphIOError` naming ``path:line``.
    """
    path = os.fspath(path)
    us, vs = array("q"), array("q")
    with _open_text(path) as handle:
        for lineno, text in _blocks(handle):
            block_us, block_vs = _parse_block(text, lineno, path)
            us += block_us
            vs += block_vs
    name = name or os.path.basename(path)
    csr = CSRGraph._from_endpoints(us, vs, name=name, relabel=relabel)
    nodes: range | dict[int, None] = (
        range(csr.num_nodes) if relabel
        else dict.fromkeys(chain.from_iterable(zip(us, vs)))
    )
    return Graph._from_csr(csr, nodes, name=name)


def write_edge_list(
    graph: Graph,
    path: str | os.PathLike[str],
    header: bool = True,
) -> str:
    """Write ``graph`` as a SNAP-style edge list; returns the path."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(f"# Undirected graph: {graph.name or 'unnamed'}\n")
            handle.write(
                f"# Nodes: {graph.num_nodes} Edges: {graph.num_edges}\n"
            )
            handle.write("# FromNodeId\tToNodeId\n")
        for u, v in sorted(graph.edges()):
            handle.write(f"{u}\t{v}\n")
    return path
