"""RPL005 — the pickling contract behind the multi-process fleet.

The mp engine ships ``CSRGraph`` / ``HostShard`` / ``ShardedCSR``
across process boundaries and snapshots worker state into checkpoints
through the same explicit-state contract, so two properties are
load-bearing:

* ``__getstate__`` and ``__setstate__`` come in pairs. A class with
  only one of them pickles *something* — usually the wrong thing: a
  lone ``__getstate__`` round-trips into an object whose lazily-rebuilt
  caches were never reset, a lone ``__setstate__`` never runs against
  the default state dict it assumes.
* The pinned classes above must keep lazy/underscore cache attributes
  (``_index_of``, ``_mirror``, ``_edge_owners``, ...) *out* of their
  state: caches are derived data, shipping them bloats every spawn /
  checkpoint payload, and a stale cache that disagrees with the
  rebuilt-on-demand value is a silent divergence between a respawned
  worker and the original. State must be explicit — a direct
  ``self.__dict__`` dump is flagged for the same reason.
* Shared-memory segment handles (any state name containing ``shm`` or
  ``mailbox``) must stay out of pickled state entirely: a
  ``multiprocessing.shared_memory`` mapping is a process-local OS
  resource — pickling one either fails or, worse, re-attaches in the
  receiver and silently double-counts the segment with the resource
  tracker. Workers re-attach by name from the spawn arguments instead
  (:mod:`repro.sim.shm_transport`).

Statically verifiable shapes (all three live classes use one of them):
a return of explicit ``self.<attr>`` reads, or a comprehension over a
class-level name tuple (``_PICKLED_SLOTS`` / ``__slots__``) whose
elements this rule resolves and screens for underscore names.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.lint.engine import Finding, SourceFile, rule

CODE = "RPL005"

#: Classes whose pickled payload crosses process / checkpoint
#: boundaries in the mp engine.
PINNED_CLASSES = ("CSRGraph", "HostShard", "ShardedCSR")


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }


def _class_constant_tuple(cls: ast.ClassDef, name: str) -> tuple[str, ...] | None:
    """Resolve a class-level ``NAME = ("a", "b", ...)`` literal."""
    for node in cls.body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if name in targets and isinstance(node.value, (ast.Tuple, ast.List)):
                elems = []
                for elt in node.value.elts:
                    if not (
                        isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                    ):
                        return None
                    elems.append(elt.value)
                return tuple(elems)
    return None


def _shm_handle(name: str) -> bool:
    """Names that smell like shared-memory transport handles."""
    lowered = name.lower()
    return "shm" in lowered or "mailbox" in lowered


def _self_attr(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _check_pinned_getstate(
    src: SourceFile, cls: ast.ClassDef, getstate: ast.FunctionDef
) -> Iterable[Finding]:
    for stmt in ast.walk(getstate):
        if not isinstance(stmt, ast.Return) or stmt.value is None:
            continue
        value = stmt.value
        # comprehension over a class-level name tuple: screen the
        # resolved elements, not the iterable attribute itself
        if isinstance(value, (ast.DictComp, ast.ListComp, ast.GeneratorExp)):
            gens = value.generators
            iter_attr = _self_attr(gens[0].iter) if gens else None
            if iter_attr is not None:
                names = _class_constant_tuple(cls, iter_attr)
                if names is None:
                    # unresolvable (inherited __slots__ etc.): nothing
                    # provable either way — stay silent, the runtime
                    # pickling tests own this case
                    continue
                for leaked in [n for n in names if n.startswith("_")]:
                    yield Finding(
                        CODE,
                        src.path,
                        stmt.lineno,
                        stmt.col_offset,
                        f"{cls.name}.__getstate__ ships cache attribute "
                        f"{leaked!r} via {iter_attr}: lazy/underscore "
                        "attrs are derived data and must be dropped from "
                        "the pickled state (reset them in __setstate__)",
                    )
                for leaked in [n for n in names if _shm_handle(n)]:
                    yield Finding(
                        CODE,
                        src.path,
                        stmt.lineno,
                        stmt.col_offset,
                        f"{cls.name}.__getstate__ ships shared-memory "
                        f"handle {leaked!r} via {iter_attr}: segment "
                        "handles are process-local OS resources — workers "
                        "re-attach by name, never through a pickle",
                    )
                continue
        for sub in ast.walk(value):
            attr = _self_attr(sub)
            if attr is None:
                continue
            if attr == "__dict__":
                yield Finding(
                    CODE,
                    src.path,
                    sub.lineno,
                    sub.col_offset,
                    f"{cls.name}.__getstate__ dumps self.__dict__: state "
                    "must be explicit so lazy caches stay out of spawn "
                    "and checkpoint payloads",
                )
            elif attr.startswith("_"):
                yield Finding(
                    CODE,
                    src.path,
                    sub.lineno,
                    sub.col_offset,
                    f"{cls.name}.__getstate__ ships cache attribute "
                    f"self.{attr}: lazy/underscore attrs are derived data "
                    "and must be dropped from the pickled state",
                )
            elif _shm_handle(attr):
                yield Finding(
                    CODE,
                    src.path,
                    sub.lineno,
                    sub.col_offset,
                    f"{cls.name}.__getstate__ ships shared-memory handle "
                    f"self.{attr}: segment handles are process-local OS "
                    "resources — workers re-attach by name, never through "
                    "a pickle",
                )


@rule(
    CODE,
    "pickling-contract",
    "__getstate__/__setstate__ come in pairs, and the mp-pinned classes "
    "must keep lazy cache attrs out of their pickled state",
)
def check(src: SourceFile) -> Iterable[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = _methods(node)
        has_get = "__getstate__" in methods
        has_set = "__setstate__" in methods
        if has_get != has_set:
            present, missing = (
                ("__getstate__", "__setstate__")
                if has_get
                else ("__setstate__", "__getstate__")
            )
            where = methods[present]
            findings.append(
                Finding(
                    CODE,
                    src.path,
                    where.lineno,
                    where.col_offset,
                    f"{node.name} defines {present} without {missing}: "
                    "an unpaired pickling hook round-trips into an object "
                    "whose state does not match what was saved",
                )
            )
        if node.name in PINNED_CLASSES:
            if not (has_get and has_set):
                findings.append(
                    Finding(
                        CODE,
                        src.path,
                        node.lineno,
                        node.col_offset,
                        f"{node.name} crosses process boundaries in the mp "
                        "engine and must define the explicit "
                        "__getstate__/__setstate__ pair",
                    )
                )
            if has_get:
                findings.extend(
                    _check_pinned_getstate(src, node, methods["__getstate__"])
                )
    return findings
