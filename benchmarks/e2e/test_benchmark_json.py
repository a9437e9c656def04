"""Self-test of the end-to-end benchmark: schema, cross-references, smoke.

Collected by the tier-1 suite, so the harness is covered by the existing
CI test step.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from inputs import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def _load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


BENCH = _load(os.path.join(ROOT, "BENCHMARK.json"))
SPEC = _load(os.path.join(HERE, "spec.json"))


def test_top_level_shape():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= len(BENCH["paths"]) <= 16
    for path in BENCH["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path
        assert os.path.isdir(os.path.join(ROOT, path))
    assert 1 <= len(BENCH["command"]) <= 32
    assert all(isinstance(arg, str) and len(arg) <= 200 for arg in BENCH["command"])
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_names_units_and_bounds():
    names = [w["name"] for w in BENCH["workloads"]]
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)

    assert 2 <= len(BENCH["workloads"]) <= 8
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]

    assert 1 <= len(BENCH["end_to_end"]) <= 16
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])

    assert 1 <= len(BENCH["per_layer"]) <= 128
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")


def test_workload_table_matches_benchmark():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert set(SPEC["pins"]) == set(WORKLOADS)


def test_moves_edges_name_existing_metrics_and_workloads():
    workloads = set(WORKLOADS)
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    assert list(SPEC["moves"]) == [m["name"] for m in BENCH["per_layer"]]
    for layer, edges in SPEC["moves"].items():
        for edge in edges:
            assert edge["metric"] in end_to_end, (layer, edge)
            assert edge["workloads"] and set(edge["workloads"]) <= workloads, (layer, edge)


def test_smoke_run(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    runs = json.loads(out.read_text())["runs"]
    assert sorted((run["workload"], run["trace"]) for run in runs) == [
        ("smoke-churn", 0), ("smoke-churn", 1),
        ("smoke-decompose", 0), ("smoke-decompose", 1),
    ]
    for run in runs:
        assert run["correct"] and run["failed"] == 0, run["workload"]
        specs = BENCH["per_layer" if run["trace"] else "end_to_end"]
        assert list(run["metrics"]) == [m["name"] for m in specs]
        if not run["trace"]:
            assert all(entry["value"] > 0 for entry in run["metrics"].values())
