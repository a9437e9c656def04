#!/usr/bin/env python
"""Shared-memory estimate transport vs queues, modulo vs refined cut.

The two levers this benchmark measures are exactly the two halves of
the mp fleet's IPC bill:

* **transport** — ``mp_transport="queue"`` pickles every host-to-host
  estimate batch through a ``multiprocessing.Queue``;
  ``mp_transport="shm"`` writes fixed-width records straight into
  per-worker mailbox rings in shared memory
  (:mod:`repro.sim.shm_transport`) — zero pickling on the hot path, so
  the queue/shm wall-clock ratio is the serialization tax;
* **placement** — ``policy="refined"`` post-processes the paper's
  modulo map with a greedy cut-reducing boundary pass
  (:func:`repro.core.assignment.refine_assignment`), shrinking the cut
  and with it every per-round batch, whatever the transport.

Every row cross-checks all runs bit-for-bit against the in-process
flat lockstep engine (coreness, rounds, Figure-5 ``estimates_sent``)
and asserts the shm hot path moved **zero pickled bytes**
(``pipe_bytes_total == 0``) and that refinement
strictly reduced the cut. Results land in ``BENCH_shm.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_shm.py            # full run
    PYTHONPATH=src python benchmarks/bench_shm.py --smoke    # CI

``--require-speedup BOUND`` turns the queue-vs-shm ratio into a gate:
every adequately-sized row must reach ``queue_seconds / shm_seconds >=
BOUND`` (undersized rows — below the engine's own
serialization-cost threshold — are excluded, and the gate refuses to
pass vacuously when nothing is sized). CI runs ``--smoke
--require-speedup 0.0``: equivalence + zero-pickle + cut gates on both
start methods without betting on shared-runner timing.
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

from repro.core.one_to_many import OneToManyConfig, run_one_to_many  # noqa: E402
from repro.core.one_to_many_mp import MP_SMALL_RUN_NODES_PER_WORKER  # noqa: E402
from repro.graph import generators as gen  # noqa: E402

FAMILIES = {
    "er": lambda n, seed: gen.erdos_renyi_graph(n, 8.0 / n, seed=seed),
    "ba": lambda n, seed: gen.preferential_attachment_graph(n, 5, seed=seed),
}


def time_run(graph, seed, reps, **overrides):
    """Best-of-``reps`` wall time for one configuration."""
    best = float("inf")
    result = None
    for _ in range(reps):
        run_graph = graph.copy()
        config = OneToManyConfig(
            mode="lockstep", seed=seed, **overrides
        )
        start = time.perf_counter()
        with warnings.catch_warnings():
            # the serialization-cost guard fires by design on smoke
            # sizes; the undersized row flag tells the same story
            warnings.simplefilter("ignore", RuntimeWarning)
            result = run_one_to_many(run_graph, config)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def _check_equal(label_a, a, label_b, b, where) -> None:
    same = (
        b.coreness == a.coreness
        and b.stats.rounds_executed == a.stats.rounds_executed
        and b.stats.extra["estimates_sent_total"]
        == a.stats.extra["estimates_sent_total"]
    )
    if not same:
        raise AssertionError(f"{label_a}/{label_b} mismatch on {where}")


def bench_one(family, n, workers, seed, reps, communication,
              start_method) -> dict:
    graph = FAMILIES[family](n, seed)
    where = f"{family} n={n} communication={communication}"
    common = dict(
        num_hosts=workers, communication=communication,
    )
    mp_common = dict(
        common, engine="mp", mp_start_method=start_method,
    )

    flat_secs, flat_result = time_run(
        graph, seed, reps, engine="flat", policy="modulo", **common
    )
    queue_secs, queue_result = time_run(
        graph, seed, reps, policy="modulo", mp_transport="queue",
        **mp_common
    )
    shm_secs, shm_result = time_run(
        graph, seed, reps, policy="modulo", mp_transport="shm", **mp_common
    )
    shm_ref_secs, shm_ref_result = time_run(
        graph, seed, reps, policy="refined", mp_transport="shm", **mp_common
    )
    # placement invariance: the refined partition must change only the
    # cut, never the per-node answer (checked against the flat engine
    # so a hypothetical transport+placement interaction cannot hide)
    _, flat_ref_result = time_run(
        graph, seed, 1, engine="flat", policy="refined", **common
    )

    _check_equal("flat", flat_result, "mp-queue", queue_result, where)
    _check_equal("flat", flat_result, "mp-shm", shm_result, where)
    if flat_ref_result.coreness != flat_result.coreness:
        raise AssertionError(f"refined placement changed coreness on {where}")
    _check_equal("flat-refined", flat_ref_result, "mp-shm-refined",
                 shm_ref_result, where)

    cut_modulo = shm_result.stats.extra["cut_edges"]
    cut_refined = shm_ref_result.stats.extra["cut_edges_after_refine"]
    if cut_refined >= cut_modulo:
        raise AssertionError(
            f"refinement did not reduce the cut on {where}: "
            f"{cut_modulo} -> {cut_refined}"
        )
    for label, res in (("shm", shm_result), ("shm-refined", shm_ref_result)):
        pipe = res.stats.extra["pipe_bytes_total"]
        if pipe != 0:
            raise AssertionError(
                f"{label} moved {pipe} pickled bytes on {where}: the hot "
                "path is supposed to be zero-pickle"
            )

    return {
        "family": family,
        "communication": communication,
        "workers": workers,
        "start_method": start_method,
        "n": graph.num_nodes,
        "edges": graph.num_edges,
        "rounds_executed": shm_result.stats.rounds_executed,
        "estimates_sent_total": (
            shm_result.stats.extra["estimates_sent_total"]
        ),
        "cut_modulo": cut_modulo,
        "cut_refined": cut_refined,
        "cut_reduction": round(1.0 - cut_refined / cut_modulo, 4),
        "flat_seconds": round(flat_secs, 6),
        "queue_seconds": round(queue_secs, 6),
        "shm_seconds": round(shm_secs, 6),
        "shm_refined_seconds": round(shm_ref_secs, 6),
        "queue_overhead_vs_flat": round(queue_secs / flat_secs, 2),
        "shm_overhead_vs_flat": round(shm_secs / flat_secs, 2),
        "shm_speedup_vs_queue": round(queue_secs / shm_secs, 2),
        "pipe_bytes_queue": queue_result.stats.extra["pipe_bytes_total"],
        "pipe_bytes_shm": shm_result.stats.extra["pipe_bytes_total"],
        "shm_bytes_total": shm_result.stats.extra["shm_bytes_total"],
        "shm_refined_bytes_total": (
            shm_ref_result.stats.extra["shm_bytes_total"]
        ),
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
        help="override node counts (default: 20000 50000)",
    )
    parser.add_argument(
        "--communication", default="broadcast",
        choices=("broadcast", "p2p"),
        help="host-to-host medium (default broadcast)",
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
        "reaches shm_speedup_vs_queue >= BOUND; refuses to pass "
        "vacuously when every row is undersized",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "..",
            "BENCH_shm.json",
        ),
    )
    args = parser.parse_args(argv)

    # smoke keeps one row above the undersized threshold (512
    # nodes/worker on 2 workers) so --require-speedup has a sized row
    # to measure instead of tripping its no-vacuous-pass rule
    sizes = args.sizes or ([400, 1200] if args.smoke else [20000, 50000])
    workers = 2 if args.smoke and args.workers == 4 else args.workers
    results = []
    for n in sizes:
        for family in FAMILIES:
            row = bench_one(
                family, n, workers, args.seed, args.reps,
                args.communication, args.start_method,
            )
            results.append(row)
            print(
                f"{family:>4s}/{args.communication:<9s} n={row['n']:>6d} "
                f"cut {row['cut_modulo']:>7d}->{row['cut_refined']:>7d} | "
                f"flat {row['flat_seconds']:7.3f}s | "
                f"queue {row['queue_seconds']:7.3f}s "
                f"({row['queue_overhead_vs_flat']:5.2f}x) | "
                f"shm {row['shm_seconds']:7.3f}s "
                f"({row['shm_overhead_vs_flat']:5.2f}x, "
                f"{row['shm_speedup_vs_queue']:4.2f}x vs queue)",
                flush=True,
            )

    top_n = max(sizes)
    at_top = sorted(
        r["shm_overhead_vs_flat"] for r in results if r["n"] >= top_n
    )
    summary = {
        "largest_n": top_n,
        "workers": workers,
        "start_method": args.start_method,
        "median_queue_overhead_vs_flat_at_largest_n": sorted(
            r["queue_overhead_vs_flat"] for r in results if r["n"] >= top_n
        )[len(at_top) // 2] if at_top else 0.0,
        "median_shm_overhead_vs_flat_at_largest_n": (
            at_top[len(at_top) // 2] if at_top else 0.0
        ),
        "median_cut_reduction": sorted(
            r["cut_reduction"] for r in results
        )[len(results) // 2] if results else 0.0,
        "all_verified": all(r["verified"] for r in results),
    }
    payload = {
        "benchmark": (
            "shared-memory mailbox transport vs queue transport, and "
            "modulo vs greedily-refined placement, one-to-many mp engine"
        ),
        "smoke": args.smoke,
        "seed": args.seed,
        "reps": args.reps,
        "workers": workers,
        "start_method": args.start_method,
        "communication": args.communication,
        "results": results,
        "summary": summary,
    }
    out_path = os.path.abspath(args.out)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(
        f"\nmp overhead vs flat at n={top_n}: queue "
        f"{summary['median_queue_overhead_vs_flat_at_largest_n']:.2f}x "
        f"-> shm {summary['median_shm_overhead_vs_flat_at_largest_n']:.2f}x"
        f" ({workers} workers, {args.start_method}); median cut "
        f"reduction {summary['median_cut_reduction']:.1%}"
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
            if r["shm_speedup_vs_queue"] < args.require_speedup
        ]
        if slow:
            for r in slow:
                print(
                    f"--require-speedup: FAIL — {r['family']} n={r['n']} "
                    f"reached {r['shm_speedup_vs_queue']:.2f}x vs queue "
                    f"(< {args.require_speedup:.2f}x)",
                    file=sys.stderr,
                )
            return 1
        print(
            f"--require-speedup: OK — {len(sized)} sized row(s) >= "
            f"{args.require_speedup:.2f}x vs queue"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
