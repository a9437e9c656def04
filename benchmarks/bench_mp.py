#!/usr/bin/env python
"""Multi-process sharded engine vs the in-process engines.

Runs ``run_one_to_many`` through three execution paths — the object
engine (``engine="round"``), the in-process sharded flat engine
(``engine="flat"``) and the process-per-shard engine (``engine="mp"``,
one OS process per :class:`~repro.graph.sharded.HostShard`,
host-to-host batches over ``multiprocessing`` queues) — under both
communication policies, on the same three graph families as
``bench_sharded.py`` (er / ba / caveman), all in ``mode="lockstep"``
(the only discipline a process fleet can replay; see
:mod:`repro.sim.mp_engine`).

Every row cross-checks all three engines bit-for-bit (coreness, rounds,
per-round sends, per-host messages, Figure-5 ``estimates_sent``) plus
the BZ oracle, and records what the in-process engines cannot measure:
**real transport cost** — serialized host-to-host bytes per round
(``pipe_bytes_total`` / ``pipe_bytes_per_round``, pickled once at the
sender, so these are true wire sizes) and the per-worker shard payload
shipped at startup. Expect ``mp`` to be *slower* than ``flat`` on one
machine: the protocol work is identical, the IPC bill is new — that
gap is the honest price of actual process isolation, and the recorded
``mp_overhead_vs_flat`` column tracks it.

Usage::

    PYTHONPATH=src python benchmarks/bench_mp.py            # full run
    PYTHONPATH=src python benchmarks/bench_mp.py --smoke    # CI

``--smoke`` shrinks everything to a seconds-long equivalence + sanity
run on 2 workers. ``--start-method`` defaults to spawn (what a real
deployment resembles); full recorded runs keep that default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.baselines import batagelj_zaversnik  # noqa: E402
from repro.core.one_to_many import OneToManyConfig, run_one_to_many  # noqa: E402
from repro.core.one_to_many import MP_SMALL_RUN_NODES_PER_WORKER  # noqa: E402
from repro.graph import generators as gen  # noqa: E402

FAMILIES = {
    "er": lambda n, seed: gen.erdos_renyi_graph(n, 8.0 / n, seed=seed),
    "ba": lambda n, seed: gen.preferential_attachment_graph(n, 5, seed=seed),
    "caveman": lambda n, seed: gen.caveman_graph(max(1, n // 20), 20),
}

COMMUNICATIONS = ("broadcast", "p2p")

POLICY = {"er": "modulo", "ba": "modulo", "caveman": "block"}


def time_run(graph, engine, communication, policy, hosts, seed, reps,
             start_method):
    """Best-of-``reps`` wall time for one engine; returns (secs, result)."""
    best = float("inf")
    result = None
    for _ in range(reps):
        run_graph = graph.copy()
        config = OneToManyConfig(
            num_hosts=hosts,
            policy=policy,
            communication=communication,
            engine=engine,
            mode="lockstep",
            seed=seed,
            mp_start_method=start_method if engine == "mp" else None,
        )
        start = time.perf_counter()
        with warnings.catch_warnings():
            # the serialization-cost guard fires by design on smoke
            # sizes; the recorded wall times tell the same story
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_one_to_many(run_graph, config)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def _check_equal(family, n, communication, name_a, a, name_b, b) -> None:
    if b.coreness != a.coreness:
        raise AssertionError(
            f"{name_a}/{name_b} coreness mismatch on {family} n={n} "
            f"communication={communication}"
        )
    sa, sb = a.stats, b.stats
    same = (
        sb.rounds_executed == sa.rounds_executed
        and sb.execution_time == sa.execution_time
        and sb.sends_per_round == sa.sends_per_round
        and sb.sent_per_process == sa.sent_per_process
        and sb.converged == sa.converged
        and sb.extra["estimates_sent_total"] == sa.extra["estimates_sent_total"]
        and sb.extra["cut_edges"] == sa.extra["cut_edges"]
    )
    if not same:
        raise AssertionError(
            f"{name_a}/{name_b} stats mismatch on {family} n={n} "
            f"communication={communication}"
        )


def bench_one(family, n, workers, seed, reps, communication,
              start_method) -> dict:
    graph = FAMILIES[family](n, seed)
    policy = POLICY[family]

    obj_secs, obj_result = time_run(
        graph, "round", communication, policy, workers, seed, reps,
        start_method,
    )
    flat_secs, flat_result = time_run(
        graph, "flat", communication, policy, workers, seed, reps,
        start_method,
    )
    mp_secs, mp_result = time_run(
        graph, "mp", communication, policy, workers, seed, reps,
        start_method,
    )

    _check_equal(family, n, communication, "flat", flat_result,
                 "mp", mp_result)
    _check_equal(family, n, communication, "object", obj_result,
                 "mp", mp_result)
    if mp_result.coreness != batagelj_zaversnik(graph):
        raise AssertionError(
            f"mp coreness != BZ oracle on {family} n={n} "
            f"communication={communication}"
        )

    extra = mp_result.stats.extra
    pipe_rounds = extra["pipe_bytes_per_round"]
    return {
        "family": family,
        "communication": communication,
        "policy": policy,
        "workers": workers,
        "start_method": extra["start_method"],
        "n": graph.num_nodes,
        "edges": graph.num_edges,
        "cut_edges": extra["cut_edges"],
        "rounds_executed": mp_result.stats.rounds_executed,
        "estimates_sent_total": extra["estimates_sent_total"],
        "object_seconds": round(obj_secs, 6),
        "flat_seconds": round(flat_secs, 6),
        "mp_seconds": round(mp_secs, 6),
        "mp_nodes_per_sec": round(graph.num_nodes / mp_secs, 1),
        "mp_speedup_vs_object": round(obj_secs / mp_secs, 2),
        "mp_overhead_vs_flat": round(mp_secs / flat_secs, 2),
        "pipe_bytes_total": extra["pipe_bytes_total"],
        "pipe_bytes_per_round": pipe_rounds,
        "pipe_bytes_max_round": max(pipe_rounds) if pipe_rounds else 0,
        "shard_payload_bytes_total": sum(extra["shard_payload_bytes"]),
        # below the engine's own serialization-cost threshold the IPC
        # bill dominates by design; speed gates must skip these rows
        "undersized": (
            graph.num_nodes < MP_SMALL_RUN_NODES_PER_WORKER * workers
        ),
        "verified": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, equivalence-focused; for CI",
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        help="override node counts (default: 5000 20000)",
    )
    parser.add_argument(
        "--communications",
        nargs="+",
        default=None,
        choices=COMMUNICATIONS,
        help="subset of communication policies (default: both)",
    )
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes == host shards")
    parser.add_argument(
        "--start-method", default="spawn",
        choices=("spawn", "fork", "forkserver"),
        help="multiprocessing start method for the mp engine",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument(
        "--require-speedup", type=float, default=None, metavar="BOUND",
        help="fail unless every adequately-sized row (undersized=false) "
        "reaches mp_speedup_vs_object >= BOUND; refuses to pass "
        "vacuously when every row is undersized",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "..",
            "BENCH_mp.json",
        ),
    )
    args = parser.parse_args(argv)

    sizes = args.sizes or ([400] if args.smoke else [5000, 20000])
    workers = 2 if args.smoke and args.workers == 4 else args.workers
    communications = (
        tuple(args.communications) if args.communications else COMMUNICATIONS
    )
    results = []
    for n in sizes:
        for family in FAMILIES:
            for communication in communications:
                row = bench_one(
                    family, n, workers, args.seed, args.reps,
                    communication, args.start_method,
                )
                results.append(row)
                print(
                    f"{family:>8s}/{communication:<9s} n={row['n']:>6d} "
                    f"cut={row['cut_edges']:>7d} | "
                    f"object {row['object_seconds']:7.3f}s | "
                    f"flat {row['flat_seconds']:7.3f}s | "
                    f"mp {row['mp_seconds']:7.3f}s "
                    f"({row['mp_overhead_vs_flat']:5.2f}x flat, "
                    f"{row['pipe_bytes_total']:>9d} pipe bytes)",
                    flush=True,
                )

    top_n = max(sizes)
    at_top = [r for r in results if r["n"] >= top_n]
    summary = {
        "largest_n": top_n,
        "workers": workers,
        "start_method": args.start_method,
        "median_mp_overhead_vs_flat_at_largest_n": (
            sorted(r["mp_overhead_vs_flat"] for r in at_top)[len(at_top) // 2]
            if at_top else 0.0
        ),
        "max_pipe_bytes_total_at_largest_n": max(
            (r["pipe_bytes_total"] for r in at_top), default=0
        ),
        "all_verified": all(r["verified"] for r in results),
    }
    payload = {
        "benchmark": (
            "multi-process sharded engine (one OS process per HostShard) "
            "vs in-process engines, one-to-many protocol"
        ),
        "smoke": args.smoke,
        "seed": args.seed,
        "reps": args.reps,
        "workers": workers,
        "start_method": args.start_method,
        "communications": list(communications),
        "results": results,
        "summary": summary,
    }
    out_path = os.path.abspath(args.out)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(
        f"\nmedian mp overhead vs flat at n={top_n}: "
        f"{summary['median_mp_overhead_vs_flat_at_largest_n']:.2f}x "
        f"({workers} workers, {args.start_method})"
    )
    print(f"-> {out_path}")
    if args.require_speedup is not None:
        sized = [r for r in results if not r["undersized"]]
        if not sized:
            print(
                "--require-speedup: FAIL — every row is undersized "
                f"(< {MP_SMALL_RUN_NODES_PER_WORKER} nodes/worker); "
                "a gate with nothing to measure must not pass",
                file=sys.stderr,
            )
            return 1
        slow = [
            r for r in sized
            if r["mp_speedup_vs_object"] < args.require_speedup
        ]
        if slow:
            for r in slow:
                print(
                    f"--require-speedup: FAIL — {r['family']}/"
                    f"{r['communication']} n={r['n']} reached "
                    f"{r['mp_speedup_vs_object']:.2f}x vs object "
                    f"(< {args.require_speedup:.2f}x)",
                    file=sys.stderr,
                )
            return 1
        print(
            f"--require-speedup: OK — {len(sized)} sized row(s) >= "
            f"{args.require_speedup:.2f}x vs object"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
