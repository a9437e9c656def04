"""RPL004 — every config knob must be reachable by the validation layer.

``OneToOneConfig`` / ``OneToManyConfig`` are the user-facing surface of
the whole engine stack, and the project's contract is that *invalid
combinations are rejected loudly*: engine-specific knobs
(``mp_start_method``, ``mp_reply_timeout``, ``checkpoint``, ``backend``,
``latency`` ...) raise :class:`ConfigurationError` on engines that
silently would not honour them. A field added to a config dataclass
without touching the validation layer is exactly how a knob starts
being silently ignored — the runs "work" and report results that do
not correspond to the requested configuration.

This rule requires every dataclass field of a config class to be
*referenced* in the validation layer: the module defining the class
(whose row runners consume it), ``core/paths.py`` (the table of
execution paths, whose rows name every option they take, and its one
check) or ``core/api.py`` (the cross-algorithm dispatch). A reference
is an attribute access ``<x>.<field>`` or the field name as a string
literal (a table row's option tuple).
"""

from __future__ import annotations

import ast
from typing import Iterable, Sequence

from repro.devtools.lint.astutil import path_matches
from repro.devtools.lint.engine import Finding, SourceFile, rule

CODE = "RPL004"

#: Class names whose dataclass fields are user-facing knobs.
CONFIG_CLASSES = ("OneToOneConfig", "OneToManyConfig")

#: Modules that participate in validation for *every* config class, on
#: top of the module defining the class itself.
_SHARED_VALIDATION_SUFFIXES = ("core/api.py", "core/paths.py")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        node = deco.func if isinstance(deco, ast.Call) else deco
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name == "dataclass":
            return True
    return False


def _fields(cls: ast.ClassDef) -> list[tuple[str, int, int]]:
    out = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            ann = node.annotation
            base = ann.value if isinstance(ann, ast.Subscript) else ann
            base_name = base.attr if isinstance(base, ast.Attribute) else getattr(
                base, "id", None
            )
            if base_name == "ClassVar":
                continue
            out.append((node.target.id, node.lineno, node.col_offset))
    return out


def _references(src: SourceFile) -> set[str]:
    refs: set[str] = set()
    for node in ast.walk(src.tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                refs.add(node.value)
    return refs


@rule(
    CODE,
    "config-knob-coverage",
    "every OneToOneConfig / OneToManyConfig dataclass field must be "
    "referenced by the config-validation layer",
    scope="project",
)
def check(files: Sequence[SourceFile]) -> Iterable[Finding]:
    shared_refs: set[str] = set()
    for src in files:
        if any(path_matches(src.path, s) for s in _SHARED_VALIDATION_SUFFIXES):
            shared_refs |= _references(src)
    findings: list[Finding] = []
    for src in files:
        config_classes = [
            node
            for node in src.tree.body
            if isinstance(node, ast.ClassDef)
            and node.name in CONFIG_CLASSES
            and _is_dataclass(node)
        ]
        if not config_classes:
            continue
        # the defining module's row runners consume the knobs; the
        # table in core/paths.py names them and rejects the rest
        local_refs = _references(src) | shared_refs
        for cls in config_classes:
            for name, line, col in _fields(cls):
                # the field's own AnnAssign target is a Name, not an
                # Attribute, so it does not count as a reference; any
                # real use (config.<name> or the getattr-loop string)
                # does
                if name in local_refs:
                    continue
                findings.append(
                    Finding(
                        CODE,
                        src.path,
                        line,
                        col,
                        f"config knob {cls.name}.{name} is never referenced "
                        "by the validation layer (defining module, "
                        "core/paths.py or core/api.py): without a "
                        "rejection path the knob "
                        "can be set and silently ignored on engines that "
                        "do not honour it",
                    )
                )
    return findings
