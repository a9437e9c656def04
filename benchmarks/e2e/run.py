"""End-to-end benchmark: file-to-coreness and live-churn workloads.

One workload, as the benchmark contract calls it (the last stdout line
is the JSON result)::

    python3 benchmarks/e2e/run.py --workload social-1to1 --seed 0 --seconds 10 --trace 0

Every workload of ``BENCHMARK.json``, writing the full results (sample
counts, quartiles, input manifests) to ``--out``; ``--trace 1`` gives
the per-layer numbers instead::

    python3 benchmarks/e2e/run.py --out set1.json
    python3 benchmarks/e2e/run.py --trace 1 --out traced.json

Verdicts between two such result files, from the bounds in
``BENCHMARK.json`` (exit 1 on any "worse")::

    python3 benchmarks/e2e/run.py --compare set1.json set2.json

``--smoke`` runs two n~2k workloads, untraced and traced, in a few
seconds (the self-test runs it).

Each workload runs in two fresh child interpreters started from the
checkout's ``src/``: one writes the seeded inputs (``inputs.py``), one
measures (``harness.py``). This parent imports nothing from the
program, so it can enforce the time limit and reap every process the
children started.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(HERE, ".work")

#: Wall-clock limit for one workload, children included.
WORKLOAD_TIMEOUT_S = 170.0
SMOKE_SECONDS = 0.2


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of a child's process group (the workers it
    spawned included), reap the child, and wait until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _child(argv: "list[str]", deadline: float, tmp: str) -> None:
    """Run one child interpreter in its own session; raise on failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["TMPDIR"] = tmp
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env, start_new_session=True,
        stdout=sys.stderr,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        _stop_group(proc)
    if code != 0:
        reason = "timed out" if code is None else f"exited {code}"
        raise RuntimeError(f"{os.path.basename(argv[0])} {reason}: {argv[1:]}")


def run_workload(
    name: str, seed: int, seconds: float, traces: "tuple[int, ...]"
) -> "list[dict]":
    """Prepare the inputs once, then measure once per trace mode, each
    step in a fresh child interpreter."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    work = os.path.join(WORK, f"{name}-seed{seed}-{os.getpid()}")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        _child(
            [os.path.join(HERE, "inputs.py"), "--workload", name,
             "--seed", str(seed), "--out", work],
            deadline, tmp,
        )
        with open(os.path.join(work, "manifest.json")) as handle:
            manifest = json.load(handle)
        results = []
        for trace in traces:
            out = os.path.join(work, f"result-trace{trace}.json")
            _child(
                [os.path.join(HERE, "harness.py"), "--workload", name,
                 "--inputs", work, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--out", out],
                deadline, tmp,
            )
            with open(out) as handle:
                result = json.load(handle)
            result["detail"]["inputs"] = manifest
            results.append(result)
        return results
    finally:
        shutil.rmtree(work, ignore_errors=True)


def contract_line(result: dict, bench: dict, trace: int) -> dict:
    """The result as the benchmark contract prints it."""
    specs = bench["per_layer" if trace else "end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            spec["name"]: {"value": result["metrics"][spec["name"]], "unit": spec["unit"]}
            for spec in specs
        },
    }


def report(name: str, line: dict) -> None:
    print(
        f"{name}: correct={line['correct']} attempted={line['attempted']} "
        f"failed={line['failed']}"
    )
    for metric, entry in line["metrics"].items():
        print(f"  {metric:38} {entry['value']:>16.6g} {entry['unit']}")


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(a: float, b: float, better: str, bound: float) -> str:
    change = (b - a) / a
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def _untraced_runs(path: str) -> dict:
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    return {run["workload"]: run for run in runs if run["trace"] == 0}


def compare(path_a: str, path_b: str) -> int:
    bench = load_benchmark()
    a, b = (_untraced_runs(path) for path in (path_a, path_b))
    worse = 0
    print(f"{'workload':18} {'metric':14} {'A':>12} {'B':>12} {'change':>8}  verdict")
    for name in (w["name"] for w in bench["workloads"]):
        if name not in a or name not in b:
            print(f"{name:18} missing from {'A' if name not in a else 'B'}")
            worse += 1
            continue
        for spec in bench["end_to_end"]:
            va = a[name]["metrics"][spec["name"]]["value"]
            vb = b[name]["metrics"][spec["name"]]["value"]
            v = verdict(va, vb, spec["better"], spec["bound"])
            worse += v == "worse"
            print(
                f"{name:18} {spec['name']:14} {va:12.5g} {vb:12.5g} "
                f"{(vb - va) / va:+8.1%}  {v}"
            )
        fa = a[name]["failed"] / a[name]["attempted"]
        fb = b[name]["failed"] / b[name]["attempted"]
        v = "worse" if fb > fa else "within bound"
        worse += v == "worse"
        print(f"{name:18} {'failed_ratio':14} {fa:12.5g} {fb:12.5g} {'':>8}  {v}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1],
    )
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results JSON (all-workload runs)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    if args.workload:
        (result,) = run_workload(args.workload, args.seed, seconds, (args.trace,))
        line = contract_line(result, bench, args.trace)
        report(args.workload, line)
        print(json.dumps(line))
        return 0

    if args.smoke:
        sys.path.insert(0, HERE)
        from inputs import SMOKE_WORKLOADS

        names, seconds, traces = list(SMOKE_WORKLOADS), SMOKE_SECONDS, (0, 1)
    else:
        names, traces = [w["name"] for w in bench["workloads"]], (args.trace,)
    runs = []
    for name in names:
        for trace, result in zip(traces, run_workload(name, args.seed, seconds, traces)):
            line = contract_line(result, bench, trace)
            report(f"{name} (trace {trace})", line)
            runs.append({"workload": name, "trace": trace, **line, "detail": result["detail"]})
    out = args.out or os.path.join(WORK, f"results-seed{args.seed}.json")
    with open(out, "w") as handle:
        json.dump(
            {"seed": args.seed, "seconds": seconds, **environment(), "runs": runs},
            handle, indent=1,
        )
    print(f"results: {out}", file=sys.stderr)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
