"""RPL007 — the flat streaming paths never touch the object graph.

The streaming layer has exactly one object-graph implementation: the
:class:`~repro.streaming.maintenance.DynamicKCore` oracle, whose whole
purpose is to define correctness in readable adjacency-dict Python.
Every other module under ``streaming/`` is a *flat* path — it runs on
the ``array('q')`` rows of
:class:`~repro.graph.dynamic_csr.DynamicCSRGraph`, and its
performance claim (the ``BENCH_streaming`` updates/sec win) rests on
no object ``Graph`` being materialised per edit. A
module-scope import of ``repro.graph.graph`` in one of those modules
is how that erosion starts: first a type hint, then an isinstance
check, then an object graph on the hot path.

This rule flags module-scope imports of ``repro.graph.graph`` (or
``Graph`` re-exported from ``repro.graph``) in every ``streaming/``
module except ``streaming/maintenance.py``. Imports inside an ``if
TYPE_CHECKING:`` block or inside a function (a boundary conversion
such as ``to_graph()``, deferred until the caller asks for an object
graph) stay legal.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.lint.astutil import (
    build_parents,
    is_module_scope,
    iter_parents,
    path_matches,
)
from repro.devtools.lint.engine import Finding, SourceFile, rule

CODE = "RPL007"

#: The one streaming module allowed to build on the object graph: the
#: correctness oracle itself.
_ALLOWED_SUFFIX = "streaming/maintenance.py"

_OBJECT_GRAPH_MODULES = ("repro.graph.graph", "repro.graph")


def _imports_object_graph(node: ast.stmt) -> bool:
    if isinstance(node, ast.Import):
        return any(
            alias.name == "repro.graph.graph" for alias in node.names
        )
    if isinstance(node, ast.ImportFrom):
        if node.level != 0:
            return False
        if node.module == "repro.graph.graph":
            return True
        if node.module == "repro.graph":
            return any(alias.name == "Graph" for alias in node.names)
    return False


def _in_type_checking_block(
    node: ast.stmt, parents: dict[ast.AST, ast.AST]
) -> bool:
    for anc in iter_parents(node, parents):
        if isinstance(anc, ast.If):
            test = anc.test
            if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
                return True
            if (
                isinstance(test, ast.Attribute)
                and test.attr == "TYPE_CHECKING"
            ):
                return True
    return False


@rule(
    CODE,
    "streaming-flatness",
    "streaming/ modules other than the maintenance.py oracle may "
    "import the object graph only inside functions or TYPE_CHECKING "
    "blocks — the flat paths run on DynamicCSRGraph's row arrays",
)
def check(src: SourceFile) -> Iterable[Finding]:
    normalized = src.path.replace("\\", "/")
    if "streaming/" not in normalized:
        return []
    if path_matches(src.path, _ALLOWED_SUFFIX):
        return []
    parents = build_parents(src.tree)
    findings: list[Finding] = []
    for node in ast.walk(src.tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if not _imports_object_graph(node):
            continue
        if not is_module_scope(node, parents):
            continue
        if _in_type_checking_block(node, parents):
            continue
        findings.append(
            Finding(
                CODE,
                src.path,
                node.lineno,
                node.col_offset,
                "module-scope object-graph import in a flat streaming "
                "module; only streaming/maintenance.py (the oracle) "
                "builds on repro.graph.graph — defer the import into a "
                "boundary-conversion function or a TYPE_CHECKING block",
            )
        )
    return findings
