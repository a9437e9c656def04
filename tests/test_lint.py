"""Tests for replay-lint (:mod:`repro.devtools.lint`).

Every rule RPL001-RPL007 is exercised with at least one passing and one
failing fixture snippet (linted under synthetic paths, which is all the
path-scoped rules look at), plus suppression-comment handling, the JSON
output schema, CLI exit codes — and the meta-test that pins the live
tree itself lint-clean, which is what makes the rules *invariants*
rather than advice.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import (
    LintError,
    iter_rules,
    lint_paths,
    lint_sources,
    parse_source,
)
from repro.devtools.lint.__main__ import JSON_FORMAT_VERSION, main

REPO = Path(__file__).resolve().parent.parent

ALL_CODES = (
    "RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006", "RPL007",
)

#: A path inside a semantics-bearing package (RPL001 applies).
SEM = "src/repro/sim/fixture_mod.py"
#: A path outside the semantics-bearing packages.
NONSEM = "src/repro/analysis/fixture_mod.py"
#: A path inside the sanctioned wall-clock sink (RPL001 applies, but
#: clock reads pass; everything else is still patrolled).
TEL = "src/repro/telemetry/fixture_mod.py"


def lint_one(path: str, text: str, **kw):
    return lint_sources([(path, text)], **kw)


def codes(findings) -> list[str]:
    return [f.rule for f in findings]


class TestEngine:
    def test_all_rules_registered(self):
        assert tuple(r.code for r in iter_rules()) == ALL_CODES
        for r in iter_rules():
            assert r.summary and r.name and r.scope in ("file", "project")

    def test_syntax_error_raises_lint_error(self):
        with pytest.raises(LintError, match="syntax error"):
            parse_source("bad.py", "def f(:\n")

    def test_unknown_select_raises(self):
        with pytest.raises(LintError, match="RPL999"):
            lint_one(SEM, "x = 1\n", select=["RPL999"])

    def test_select_filters_rules(self):
        text = "import numpy\nimport random\n\n\ndef f(xs):\n    random.shuffle(xs)\n"
        assert codes(lint_one(SEM, text)) == ["RPL002", "RPL001"]
        assert codes(lint_one(SEM, text, select=["RPL002"])) == ["RPL002"]

    def test_findings_are_sorted_and_located(self):
        text = "import random\n\n\ndef f(xs):\n    random.shuffle(xs)\n    random.random()\n"
        found = lint_one(SEM, text)
        assert [f.line for f in found] == [5, 6]
        assert found[0].path == SEM
        assert found[0].col > 0
        assert SEM in found[0].render() and "RPL001" in found[0].render()


class TestSuppressions:
    BAD = "import random\n\n\ndef f(xs):\n    random.shuffle(xs)  # repl: disable=RPL001\n"

    def test_trailing_comment_suppresses(self):
        assert lint_one(SEM, self.BAD) == []

    def test_wrong_code_does_not_suppress(self):
        text = self.BAD.replace("RPL001", "RPL002")
        assert codes(lint_one(SEM, text)) == ["RPL001"]

    def test_comment_line_above_suppresses(self):
        text = (
            "import random\n\n\ndef f(xs):\n"
            "    # repl: disable=RPL001\n"
            "    random.shuffle(xs)\n"
        )
        assert lint_one(SEM, text) == []

    def test_code_line_above_does_not_suppress(self):
        # the suppression must sit on the finding's line or on a
        # comment-only line directly above — a *code* line above that
        # happens to carry a disable comment must not leak downward
        text = (
            "import random\n\n\ndef f(xs):\n"
            "    random.shuffle(xs)  # repl: disable=RPL001\n"
            "    random.shuffle(xs)\n"
        )
        assert [f.line for f in lint_one(SEM, text)] == [6]

    def test_disable_file(self):
        text = (
            "# repl: disable-file=RPL001\nimport random\n\n\ndef f(xs):\n"
            "    random.shuffle(xs)\n    random.random()\n"
        )
        assert lint_one(SEM, text) == []

    def test_multiple_codes_one_comment(self):
        text = (
            "import random\nimport numpy  # repl: disable=RPL002, RPL001\n\n\n"
            "def f(xs):\n    random.shuffle(xs)\n"
        )
        assert [f.line for f in lint_one(SEM, text)] == [6]


class TestRPL001Determinism:
    def test_unseeded_module_random_flagged(self):
        text = "import random\n\n\ndef f(xs):\n    return random.randint(0, len(xs))\n"
        found = lint_one(SEM, text)
        assert codes(found) == ["RPL001"]
        assert "unseeded" in found[0].message

    def test_seeded_random_instance_passes(self):
        text = (
            "import random\n\n\ndef f(xs, seed):\n"
            "    rng = random.Random(seed)\n    rng.shuffle(xs)\n"
            "    return isinstance(seed, random.Random)\n"
        )
        assert lint_one(SEM, text) == []

    def test_system_random_flagged(self):
        text = "import random\n\nrng = random.SystemRandom()\n"
        assert "OS entropy" in lint_one(SEM, text)[0].message

    def test_from_import_flagged(self):
        text = "from random import shuffle\n\n\ndef f(xs):\n    shuffle(xs)\n"
        assert codes(lint_one(SEM, text)) == ["RPL001"]

    def test_clock_into_result_flagged(self):
        text = "import time\n\n\ndef f():\n    return time.perf_counter()\n"
        assert codes(lint_one(SEM, text)) == ["RPL001"]

    def test_clock_telemetry_passes(self):
        text = (
            "import time as _time\n\n\ndef f(stats, deadline):\n"
            "    start = _time.perf_counter()\n"
            "    self_ts = _time.time()\n"
            "    stats.wall_seconds = _time.perf_counter() - start\n"
            "    stats.extra = {'seconds': _time.perf_counter() - start}\n"
            "    if _time.monotonic() > deadline:\n"
            "        pass\n"
            "    q.get(timeout=deadline - _time.monotonic())\n"
        )
        assert lint_one(SEM, text) == []

    def test_clock_compared_to_non_deadline_flagged(self):
        text = "import time\n\n\ndef f(est):\n    return time.time() > est\n"
        assert codes(lint_one(SEM, text)) == ["RPL001"]

    def test_hash_and_id_flagged(self):
        text = "def f(a, b):\n    return hash(a) < hash(b) or id(a) == id(b)\n"
        assert codes(lint_one(SEM, text)) == ["RPL001"] * 4

    def test_entropy_sources_flagged(self):
        text = "import os\nimport uuid\n\ntoken = os.urandom(8)\nrun_id = uuid.uuid4()\n"
        assert codes(lint_one(SEM, text)) == ["RPL001", "RPL001"]

    def test_list_over_set_flagged_sorted_passes(self):
        bad = "def f(xs):\n    s = set(xs)\n    return list(s)\n"
        good = "def f(xs):\n    s = set(xs)\n    return sorted(s)\n"
        assert codes(lint_one(SEM, bad)) == ["RPL001"]
        assert lint_one(SEM, good) == []

    def test_listcomp_over_set_literal_flagged(self):
        text = "def f():\n    return [x for x in {3, 1, 2}]\n"
        assert codes(lint_one(SEM, text)) == ["RPL001"]

    def test_loop_over_set_append_flagged(self):
        text = (
            "def f(xs):\n    out = []\n    dirty = set(xs) | {0}\n"
            "    for x in dirty:\n        out.append(x)\n    return out\n"
        )
        found = lint_one(SEM, text)
        assert codes(found) == ["RPL001"] and found[0].line == 4

    def test_loop_over_sorted_set_passes(self):
        text = (
            "def f(xs):\n    out = []\n    dirty = set(xs)\n"
            "    for x in sorted(dirty):\n        out.append(x)\n    return out\n"
        )
        assert lint_one(SEM, text) == []

    def test_order_insensitive_set_use_passes(self):
        text = (
            "def f(xs):\n    s = set(xs)\n"
            "    return len(s), max(s), sum(1 for x in s if x), 3 in s\n"
        )
        assert lint_one(SEM, text) == []

    def test_shuffle_of_dict_view_flagged(self):
        text = (
            "import random\n\n\ndef f(d, seed):\n"
            "    rng = random.Random(seed)\n"
            "    rng.shuffle(list(d.values()))\n"
        )
        found = lint_one(SEM, text)
        assert codes(found) == ["RPL001"]
        assert "shuffle" in found[0].message

    def test_shuffle_of_plain_list_passes(self):
        text = (
            "import random\n\n\ndef f(pids, seed):\n"
            "    rng = random.Random(seed)\n    order = list(pids)\n"
            "    rng.shuffle(order)\n    return order\n"
        )
        assert lint_one(SEM, text) == []

    def test_non_semantics_path_exempt(self):
        text = "import random\n\n\ndef f(xs):\n    random.shuffle(xs)\n"
        assert lint_one(NONSEM, text) == []
        assert lint_one("src/repro/devtools/lint/x.py", text) == []

    def test_telemetry_package_is_sanctioned_clock_sink(self):
        # the exact snippet that is flagged under sim/ passes under
        # telemetry/ — the span tracer exists to hold timestamps
        text = "import time\n\n\ndef f():\n    return time.perf_counter()\n"
        assert codes(lint_one(SEM, text)) == ["RPL001"]
        assert lint_one(TEL, text) == []

    def test_telemetry_package_still_linted_for_everything_else(self):
        # the clock exemption is surgical: unseeded RNG, hash()/id()
        # and set-order hazards are still patrolled — span buffers ride
        # the mp control pipes and must merge deterministically
        rng = "import random\n\n\ndef f(xs):\n    random.shuffle(xs)\n"
        assert codes(lint_one(TEL, rng)) == ["RPL001"]
        order = "def f(lanes):\n    return [x for x in set(lanes)]\n"
        assert codes(lint_one(TEL, order)) == ["RPL001"]
        ident = "def f(span):\n    return id(span)\n"
        assert codes(lint_one(TEL, ident)) == ["RPL001"]


class TestRPL002ImportGating:
    def test_module_scope_numpy_flagged(self):
        for stmt in ("import numpy", "import numpy as np",
                     "from numpy import zeros", "import numpy.linalg"):
            found = lint_one("src/repro/sim/metrics_x.py", stmt + "\n")
            assert codes(found) == ["RPL002"], stmt

    def test_numpy_backend_module_exempt(self):
        path = "src/repro/sim/kernels/numpy_backend.py"
        assert lint_one(path, "import numpy as np\n") == []
        # suffix matching must not catch impostors
        assert codes(
            lint_one("src/repro/sim/kernels/not_numpy_backend.py", "import numpy\n")
        ) == ["RPL002"]

    def test_function_local_import_passes(self):
        text = "def probe():\n    import numpy\n    return numpy\n"
        assert lint_one("src/repro/sim/kernels/__init__.py", text) == []

    def test_import_error_guard_passes(self):
        text = "try:\n    import numpy\nexcept ImportError:\n    numpy = None\n"
        assert lint_one("benchmarks/bench_x.py", text) == []

    def test_other_guard_does_not_pass(self):
        text = "try:\n    import numpy\nexcept ValueError:\n    numpy = None\n"
        assert codes(lint_one("benchmarks/bench_x.py", text)) == ["RPL002"]

    def test_other_imports_untouched(self):
        assert lint_one("src/repro/sim/x.py", "import json\nimport os\n") == []


PROTO = '''
class KernelBackend:
    def full(self, n, fill=0):
        raise NotImplementedError

    def fold_slots(self, slots, incoming, est):
        raise NotImplementedError

    def _helper(self):
        raise NotImplementedError
'''

BASE_PATH = "src/repro/sim/kernels/base.py"
STDLIB_PATH = "src/repro/sim/kernels/stdlib_backend.py"


class TestRPL003BackendParity:
    def make(self, backend_body: str):
        backend = "class StdlibBackend(KernelBackend):\n" + backend_body
        return lint_sources([(BASE_PATH, PROTO), (STDLIB_PATH, backend)])

    def test_conforming_backend_passes(self):
        assert self.make(
            "    def full(self, n, fill=0):\n        return [fill] * n\n"
            "    def fold_slots(self, slots, incoming, est):\n        return []\n"
            "    def _private_extra(self):\n        return 1\n"
        ) == []

    def test_missing_kernel_flagged(self):
        found = self.make("    def full(self, n, fill=0):\n        return []\n")
        assert codes(found) == ["RPL003"]
        assert "missing protocol kernel fold_slots" in found[0].message

    def test_extra_public_method_flagged(self):
        found = self.make(
            "    def full(self, n, fill=0):\n        return []\n"
            "    def fold_slots(self, slots, incoming, est):\n        return []\n"
            "    def turbo_kernel(self, n):\n        return n\n"
        )
        assert codes(found) == ["RPL003"]
        assert "turbo_kernel" in found[0].message

    def test_renamed_keyword_flagged(self):
        found = self.make(
            "    def full(self, n, value=0):\n        return []\n"
            "    def fold_slots(self, slots, incoming, est):\n        return []\n"
        )
        assert codes(found) == ["RPL003"]
        assert "keyword call sites" in found[0].message

    def test_changed_arity_flagged(self):
        found = self.make(
            "    def full(self, n, fill=0):\n        return []\n"
            "    def fold_slots(self, slots, incoming):\n        return []\n"
        )
        assert codes(found) == ["RPL003"]

    def test_unrelated_class_ignored(self):
        files = [
            (BASE_PATH, PROTO),
            ("src/repro/sim/other.py", "class Mailbox:\n    def full(self):\n        return 0\n"),
        ]
        assert lint_sources(files) == []

    def test_no_protocol_in_batch_noop(self):
        assert lint_one(STDLIB_PATH, "class StdlibBackend:\n    def f(self):\n        pass\n") == []


CONFIG_PATH = "src/repro/core/one_to_many.py"
API_PATH = "src/repro/core/api.py"

CONFIG_TMPL = '''
from dataclasses import dataclass


@dataclass
class OneToManyConfig:
    engine: str = "round"
    {field}: int = 0


def run_one_to_many(graph, config):
    if config.engine != "mp":
        {check}
'''


class TestRPL004ConfigCoverage:
    def test_unreferenced_knob_flagged(self):
        text = CONFIG_TMPL.format(field="quorum", check="pass")
        found = lint_one(CONFIG_PATH, text)
        assert codes(found) == ["RPL004"]
        assert "OneToManyConfig.quorum" in found[0].message

    def test_attribute_reference_passes(self):
        text = CONFIG_TMPL.format(field="quorum", check="print(config.quorum)")
        assert lint_one(CONFIG_PATH, text) == []

    def test_getattr_string_reference_passes(self):
        text = CONFIG_TMPL.format(field="quorum", check='getattr(config, "quorum")')
        assert lint_one(CONFIG_PATH, text) == []

    def test_reference_in_api_module_passes(self):
        text = CONFIG_TMPL.format(field="quorum", check="pass")
        api = "def decompose(config):\n    return config.quorum\n"
        assert lint_sources([(CONFIG_PATH, text), (API_PATH, api)]) == []

    def test_non_config_dataclass_ignored(self):
        text = (
            "from dataclasses import dataclass\n\n\n@dataclass\nclass Other:\n"
            "    unchecked: int = 0\n"
        )
        assert lint_one(CONFIG_PATH, text) == []

    def test_live_config_classes_covered(self):
        # the real config modules + api must satisfy the rule as shipped
        batch = []
        for rel in ("src/repro/core/one_to_many.py", "src/repro/core/one_to_one.py",
                    "src/repro/core/api.py", "src/repro/core/paths.py"):
            batch.append((rel, (REPO / rel).read_text()))
        assert [f for f in lint_sources(batch) if f.rule == "RPL004"] == []


CSR_PATH = "src/repro/graph/csr.py"


class TestRPL005Pickling:
    def test_unpaired_getstate_flagged(self):
        text = "class Foo:\n    def __getstate__(self):\n        return {}\n"
        found = lint_one("src/repro/utils/x.py", text)
        assert codes(found) == ["RPL005"]
        assert "without __setstate__" in found[0].message

    def test_unpaired_setstate_flagged(self):
        text = "class Foo:\n    def __setstate__(self, state):\n        pass\n"
        assert "without __getstate__" in lint_one("src/repro/utils/x.py", text)[0].message

    def test_paired_passes(self):
        text = (
            "class Foo:\n    def __getstate__(self):\n        return {}\n"
            "    def __setstate__(self, state):\n        pass\n"
        )
        assert lint_one("src/repro/utils/x.py", text) == []

    def test_pinned_class_must_pair(self):
        text = "class CSRGraph:\n    pass\n"
        found = lint_one(CSR_PATH, text)
        assert codes(found) == ["RPL005"]
        assert "explicit" in found[0].message

    def test_pinned_explicit_state_passes(self):
        text = (
            "class CSRGraph:\n"
            "    def __getstate__(self):\n"
            "        return (self.offsets, self.targets, self.name)\n"
            "    def __setstate__(self, state):\n"
            "        self.offsets, self.targets, self.name = state\n"
            "        self._mirror = None\n"
        )
        assert lint_one(CSR_PATH, text) == []

    def test_pinned_cache_leak_flagged(self):
        text = (
            "class CSRGraph:\n"
            "    def __getstate__(self):\n"
            "        return (self.offsets, self._mirror)\n"
            "    def __setstate__(self, state):\n"
            "        self.offsets, self._mirror = state\n"
        )
        found = lint_one(CSR_PATH, text)
        assert codes(found) == ["RPL005"]
        assert "self._mirror" in found[0].message

    def test_pinned_slot_tuple_leak_flagged(self):
        text = (
            "class HostShard:\n"
            '    _PICKLED_SLOTS = ("host", "_ext_index")\n'
            "    def __getstate__(self):\n"
            "        return {n: getattr(self, n) for n in self._PICKLED_SLOTS}\n"
            "    def __setstate__(self, state):\n"
            "        pass\n"
        )
        found = lint_one("src/repro/graph/sharded.py", text)
        assert codes(found) == ["RPL005"]
        assert "'_ext_index'" in found[0].message

    def test_pinned_slot_tuple_clean_passes(self):
        text = (
            "class HostShard:\n"
            '    _PICKLED_SLOTS = ("host", "offsets")\n'
            "    def __getstate__(self):\n"
            "        return {n: getattr(self, n) for n in self._PICKLED_SLOTS}\n"
            "    def __setstate__(self, state):\n"
            "        self._ext_index = None\n"
        )
        assert lint_one("src/repro/graph/sharded.py", text) == []

    def test_pinned_dict_dump_flagged(self):
        text = (
            "class ShardedCSR:\n"
            "    def __getstate__(self):\n"
            "        return self.__dict__.copy()\n"
            "    def __setstate__(self, state):\n"
            "        pass\n"
        )
        assert "self.__dict__" in lint_one("src/repro/graph/sharded.py", text)[0].message

    def test_pinned_shm_handle_flagged(self):
        # a SharedMemory mapping is a process-local OS resource: workers
        # re-attach by segment name, never through a pickle
        text = (
            "class HostShard:\n"
            "    def __getstate__(self):\n"
            "        return (self.host, self.shm)\n"
            "    def __setstate__(self, state):\n"
            "        self.host, self.shm = state\n"
        )
        found = lint_one("src/repro/graph/sharded.py", text)
        assert codes(found) == ["RPL005"]
        assert "self.shm" in found[0].message
        assert "re-attach by name" in found[0].message

    def test_pinned_slot_tuple_shm_handle_flagged(self):
        text = (
            "class HostShard:\n"
            '    _PICKLED_SLOTS = ("host", "shm_mailbox")\n'
            "    def __getstate__(self):\n"
            "        return {n: getattr(self, n) for n in self._PICKLED_SLOTS}\n"
            "    def __setstate__(self, state):\n"
            "        pass\n"
        )
        found = lint_one("src/repro/graph/sharded.py", text)
        assert codes(found) == ["RPL005"]
        assert "'shm_mailbox'" in found[0].message

    def test_unpinned_class_state_not_screened(self):
        # only the mp-pinned classes get the cache-attr screen
        text = (
            "class Snapshot:\n"
            "    def __getstate__(self):\n"
            "        return (self._anything,)\n"
            "    def __setstate__(self, state):\n"
            "        (self._anything,) = state\n"
        )
        assert lint_one("src/repro/sim/x.py", text) == []


CKPT_PATH = "src/repro/sim/checkpoint.py"

ATOMIC_HELPER = (
    "import os\n\n\ndef _write_atomic(path, payload):\n"
    "    tmp = path + '.tmp'\n"
    "    with open(tmp, 'wb') as fh:\n"
    "        fh.write(payload)\n"
    "        fh.flush()\n"
    "        os.fsync(fh.fileno())\n"
    "    os.replace(tmp, path)\n"
)


class TestRPL006CheckpointAtomicity:
    def test_atomic_helper_passes(self):
        assert lint_one(CKPT_PATH, ATOMIC_HELPER) == []

    def test_direct_write_flagged(self):
        text = "def save(path, b):\n    with open(path, 'wb') as fh:\n        fh.write(b)\n"
        found = lint_one(CKPT_PATH, text)
        assert codes(found) == ["RPL006"]
        assert "tear" in found[0].message

    def test_write_without_fsync_flagged(self):
        text = (
            "import os\n\n\ndef almost(path, b):\n"
            "    with open(path + '.tmp', 'wb') as fh:\n        fh.write(b)\n"
            "    os.replace(path + '.tmp', path)\n"
        )
        assert codes(lint_one(CKPT_PATH, text)) == ["RPL006"]

    def test_read_mode_passes(self):
        text = "def load(path):\n    with open(path, 'rb') as fh:\n        return fh.read()\n"
        assert lint_one(CKPT_PATH, text) == []

    def test_path_write_bytes_flagged(self):
        text = "def save(p, b):\n    p.write_bytes(b)\n"
        assert codes(lint_one(CKPT_PATH, text)) == ["RPL006"]

    def test_rule_scoped_to_checkpoint_module(self):
        text = "def save(path, b):\n    open(path, 'w').write(b)\n"
        assert lint_one("src/repro/utils/csvio.py", text) == []


FLAT_PATH = "src/repro/streaming/flat_maintenance.py"


class TestRPL007StreamingFlatness:
    def test_module_scope_object_graph_import_flagged(self):
        found = lint_one(FLAT_PATH, "from repro.graph.graph import Graph\n")
        assert codes(found) == ["RPL007"]
        assert "oracle" in found[0].message

    def test_plain_import_form_flagged(self):
        assert codes(lint_one(
            FLAT_PATH, "import repro.graph.graph\n"
        )) == ["RPL007"]

    def test_reexport_from_package_flagged(self):
        assert codes(lint_one(
            FLAT_PATH, "from repro.graph import Graph\n"
        )) == ["RPL007"]

    def test_type_checking_block_passes(self):
        text = (
            "from typing import TYPE_CHECKING\n\n"
            "if TYPE_CHECKING:\n"
            "    from repro.graph.graph import Graph\n"
        )
        assert lint_one(FLAT_PATH, text) == []

    def test_function_local_boundary_conversion_passes(self):
        text = (
            "def to_graph(self):\n"
            "    from repro.graph.graph import Graph\n"
            "    return Graph()\n"
        )
        assert lint_one(FLAT_PATH, text) == []

    def test_oracle_module_is_exempt(self):
        assert lint_one(
            "src/repro/streaming/maintenance.py",
            "from repro.graph.graph import Graph\n",
        ) == []

    def test_non_streaming_modules_untouched(self):
        assert lint_one(
            "src/repro/workloads/churn.py",
            "from repro.graph.graph import Graph\n",
        ) == []

    def test_other_graph_imports_pass(self):
        text = (
            "from repro.graph.csr import CSRGraph\n"
            "from repro.graph.dynamic_csr import DynamicCSRGraph\n"
        )
        assert lint_one(FLAT_PATH, text) == []


class TestCLI:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        mod = tmp_path / "clean.py"
        mod.write_text("x = 1\n")
        assert main([str(mod)]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one_text(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text("import numpy\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPL002" in out and "mod.py:1:0" in out and "1 finding(s)" in out

    def test_json_schema(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text("import numpy\n")
        assert main(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == JSON_FORMAT_VERSION
        assert payload["counts"] == {"RPL002": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "RPL002" and finding["line"] == 1

    def test_missing_path_exits_two(self, capsys):
        assert main(["definitely/not/there"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert main([str(tmp_path)]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ALL_CODES:
            assert code in out

    def test_module_entry_point(self, tmp_path):
        # the documented invocation: python -m repro.devtools.lint <path>
        mod = tmp_path / "ok.py"
        mod.write_text("x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", str(mod)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr


class TestLiveTree:
    def test_repository_is_lint_clean(self):
        # THE meta-test: the shipped tree satisfies its own invariants.
        # If this fails, either fix the violation or suppress it with a
        # justified `# repl: disable=RPLxxx` — see docs/invariants.md.
        findings = lint_paths([str(REPO / "src"), str(REPO / "benchmarks")])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_live_protocol_and_backends_in_batch(self):
        # guard against the meta-test passing vacuously: the project
        # rules must actually see the kernel layer and config classes
        from repro.devtools.lint import collect_files

        files = collect_files([str(REPO / "src")])
        assert any(f.endswith("sim/kernels/base.py") for f in files)
        assert any(f.endswith("sim/kernels/stdlib_backend.py") for f in files)
        assert any(f.endswith("sim/kernels/numpy_backend.py") for f in files)
        assert any(f.endswith("core/api.py") for f in files)
