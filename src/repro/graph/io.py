"""Edge-list I/O in the SNAP format used by the paper's datasets.

The Stanford Large Network Dataset collection ships plain-text edge
lists: ``#``-prefixed comment lines followed by one ``src<TAB>dst`` pair
per line. Directed inputs are symmetrised exactly as the paper does
("considering both directions for each link"). The loader tolerates
whitespace variations, duplicate edges and self-loops, and can relabel
nodes to the contiguous ``0..N-1`` range the modulo assignment policy
expects.

:func:`read_edge_list` makes one pass over the file. It parses bounded
blocks of lines into two ``array('q')`` endpoint buffers with the kernel
layer's ``parse_edge_block`` and hands them to its CSR build. Both pick
their backend by the CSR build's size rule (:mod:`repro.graph.csr`): a
block parses on numpy once the lines read so far, its own included,
reach ``NUMPY_MIN_PAIRS`` and numpy is importable, so a short file never
imports numpy. A block the numpy parse turns down goes to the stdlib
parse, and one that turns down too goes line by line, which names the
bad line. The returned :class:`Graph` holds that :class:`CSRGraph` and
builds its adjacency sets only when a caller first needs them, so the
flat engines run on the loader's CSR as is.
"""

from __future__ import annotations

import gzip
import os
import re
from array import array
from itertools import chain
from typing import Iterable, Iterator, TextIO

from repro.errors import GraphIOError
from repro.graph.csr import CSRGraph, _build_backend
from repro.graph.graph import Graph

__all__ = ["read_edge_list", "write_edge_list", "parse_edge_lines"]

#: Characters read per block; blocks are cut back to a line boundary.
#: A file's first block holds tens of thousands of SNAP lines, so a file
#: long enough for the numpy CSR build parses on numpy from its start.
_BLOCK_CHARS = 1 << 20

#: Comment lines and blank lines, each with its newline.
_NOISE = re.compile(r"^[^\S\n]*(?:[#%][^\n]*)?\n", re.MULTILINE)


def _open_text(path: str, errors: str = "strict") -> TextIO:
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8", errors=errors)
    return open(path, "r", encoding="utf-8", errors=errors)


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


def _blocks(handle: TextIO) -> Iterator[tuple[int, int, str]]:
    """``(first line number, lines read so far, text)`` chunks, each
    ending in a newline."""
    lines = 0
    tail = ""
    while True:
        chunk = handle.read(_BLOCK_CHARS)
        if not chunk:
            break
        chunk = tail + chunk
        cut = chunk.rfind("\n") + 1
        tail = chunk[cut:]
        if cut:
            first = lines + 1
            lines += chunk.count("\n")
            yield first, lines, chunk[:cut]
    if tail:
        yield lines + 1, lines + 1, tail + "\n"


def _strip_comments(text: str) -> str:
    """``text`` without its comment lines and empty lines. ``_NOISE``
    runs only up to the end of the last line that holds a ``#`` or a
    ``%`` or is empty: SNAP headers sit at the top, so the regex skips
    the body of a headed file's first block and every later block. A
    line of blanks alone is left for :func:`_parse_block`'s retry."""
    # the last "#", "%" or empty line; 0 also when there is none
    mark = max(text.rfind("#"), text.rfind("%"), text.rfind("\n\n") + 1)
    if not mark and text[:1] not in ("#", "%", "\n"):
        return text
    end = text.index("\n", mark) + 1
    return _NOISE.sub("", text[:end]) + text[end:]


def _parse_block(
    text: str, lineno: int, lines: int, source: str
) -> tuple[array, array]:
    """The two endpoint columns of one block of whole lines, whose first
    line is line ``lineno`` and whose last is line ``lines``.

    The comment-free block goes to the ``parse_edge_block`` kernel of
    the backend a CSR build of ``lines`` pairs would use. If that kernel
    turns it down, the block loses its blank lines and, if it had any,
    goes to the kernel again; then to the stdlib kernel if numpy turned
    it down (signs, ids of 19 or more digits). A block still turned
    down (extra columns or a bad line) goes line by line, which also
    names the first bad line.
    """
    data = _strip_comments(text)
    backend = _build_backend(lines)
    columns = backend.parse_edge_block(data)
    if columns is None:
        bare = _NOISE.sub("", data)
        if len(bare) < len(data):
            data = bare
            columns = backend.parse_edge_block(data)
    if columns is None and backend.name != "stdlib":
        # deferred for the same import cycle as in _build_backend
        from repro.sim.kernels import resolve_backend

        columns = resolve_backend("stdlib").parse_edge_block(data)
    if columns is not None:
        return columns
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


def _decode_error(path: str, exc: UnicodeDecodeError) -> str:
    """The message for a file that is not UTF-8, naming its first line
    that is not (a second, tolerant pass finds it)."""
    bad = f"can't decode byte 0x{exc.object[exc.start]:02x} as UTF-8 ({exc.reason})"
    with _open_text(path, errors="surrogateescape") as handle:
        for number, line in enumerate(handle, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:  # an escaped byte
                return f"{path}:{number}: {bad}"
    return f"{path}: {bad}"


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
    Node ids must fit in a signed 64-bit integer. A bad line, or bytes
    that are not UTF-8, raise :class:`GraphIOError` naming ``path:line``.
    """
    path = os.fspath(path)
    us, vs = array("q"), array("q")
    try:
        with _open_text(path) as handle:
            for lineno, lines, text in _blocks(handle):
                block_us, block_vs = _parse_block(text, lineno, lines, path)
                us += block_us
                vs += block_vs
    except UnicodeDecodeError as exc:
        raise GraphIOError(_decode_error(path, exc)) from None
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
    """Write ``graph`` as a SNAP-style edge list; returns the path.
    An isolated node gets a ``u<TAB>u`` line after the edges, so
    ``read_edge_list(path, relabel=False)`` reads back every node."""
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
        for u in sorted(u for u in graph.nodes() if not graph.degree(u)):
            handle.write(f"{u}\t{u}\n")
    return path
