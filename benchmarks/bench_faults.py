#!/usr/bin/env python
"""Fault-tolerance price list for the multi-process engine.

Two questions a deployment actually asks, answered with numbers:

* **What does checkpointing cost?** The same mp run at three cadences —
  no checkpoints, every 5 rounds, every round — reporting wall-clock
  overhead (percent vs the checkpoint-free run) and the snapshot bytes
  committed. Every run is cross-checked bit-identical against the flat
  lockstep reference, so the overhead figures describe runs that are
  provably doing the same protocol work.

* **How fast is recovery?** A worker is killed mid-run (at half the
  round count, via :class:`repro.sim.faults.FaultPlan`) and the
  coordinator's recovery event records the time from failure detection
  to the barrier resuming — respawn + survivor re-sends +
  deterministic replay. Measured both from scratch (no checkpoint:
  replay every missed round) and from an every-5-rounds checkpoint
  (replay <= 5 rounds), which is the number that justifies the
  checkpoint overhead above.

Usage::

    PYTHONPATH=src python benchmarks/bench_faults.py            # full run
    PYTHONPATH=src python benchmarks/bench_faults.py --smoke    # CI

Full defaults: n=20000 preferential-attachment, 4 workers, fork (the
start-method cost is bench_mp.py's subject, not this file's). Results
land in ``BENCH_faults.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import warnings

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core.one_to_many import OneToManyConfig, run_one_to_many  # noqa: E402
from repro.graph import generators as gen  # noqa: E402
from repro.sim.checkpoint import CheckpointPolicy  # noqa: E402
from repro.sim.faults import Fault, FaultPlan  # noqa: E402


def _check_equal(name, a, b) -> None:
    sa, sb = a.stats, b.stats
    same = (
        b.coreness == a.coreness
        and sb.rounds_executed == sa.rounds_executed
        and sb.sends_per_round == sa.sends_per_round
        and sb.sent_per_process == sa.sent_per_process
        and sb.extra["estimates_sent_total"] == sa.extra["estimates_sent_total"]
    )
    if not same:
        raise AssertionError(f"{name}: run is not bit-identical to flat")


def _mp(graph, workers, start_method, checkpoint=None, fault_plan=None,
        reply_timeout=None):
    config = OneToManyConfig(
        engine="mp", mode="lockstep", num_hosts=workers,
        mp_start_method=start_method, checkpoint=checkpoint,
        mp_reply_timeout=reply_timeout,
    )
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_one_to_many(graph, config, fault_plan=fault_plan)
    return time.perf_counter() - start, result


def bench_checkpoint_overhead(graph, flat, workers, start_method, reps,
                              tmp) -> list[dict]:
    rows = []
    baseline = None
    for label, every in (("off", None), ("every-5", 5), ("every-1", 1)):
        best = float("inf")
        result = None
        for rep in range(reps):
            policy = None
            if every is not None:
                policy = CheckpointPolicy(
                    every_n_rounds=every,
                    dir=os.path.join(tmp, f"ck-{label}-{rep}"),
                )
            secs, result = _mp(
                graph, workers, start_method, checkpoint=policy
            )
            best = min(best, secs)
        _check_equal(f"checkpoint {label}", flat, result)
        if baseline is None:
            baseline = best
        extra = result.stats.extra
        rows.append({
            "cadence": label,
            "wall_seconds": round(best, 6),
            "overhead_pct_vs_off": round((best / baseline - 1.0) * 100, 2),
            "checkpoint_bytes": extra.get("checkpoint_bytes", 0),
            "rounds_executed": result.stats.rounds_executed,
            "verified": True,
        })
    return rows


def bench_recovery_latency(graph, flat, workers, start_method,
                           tmp) -> list[dict]:
    kill_round = max(2, flat.stats.rounds_executed // 2)
    rows = []
    for label, every in (("no-checkpoint", None), ("every-5", 5)):
        policy = None
        if every is not None:
            policy = CheckpointPolicy(
                every_n_rounds=every, dir=os.path.join(tmp, f"rec-{label}")
            )
        plan = FaultPlan([Fault.kill(1, kill_round, when="start")])
        secs, result = _mp(
            graph, workers, start_method, checkpoint=policy, fault_plan=plan
        )
        _check_equal(f"recovery {label}", flat, result)
        (event,) = result.stats.extra["recoveries"]
        rows.append({
            "scenario": label,
            "kill_round": kill_round,
            "restored_from_round": event["restored_from_round"],
            "replayed_rounds": event["replayed_rounds"],
            "resent_batches": event["resent_batches"],
            "resent_bytes": event["resent_bytes"],
            "recovery_seconds": round(event["seconds"], 6),
            "total_wall_seconds": round(secs, 6),
            "verified": True,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny size, equivalence-focused; for CI")
    parser.add_argument("--n", type=int, default=None,
                        help="node count (default 20000; smoke 400)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes == host shards")
    parser.add_argument(
        "--start-method", default="fork",
        choices=("spawn", "fork", "forkserver"),
        help="multiprocessing start method (fork: the checkpoint/recovery "
        "deltas are the subject here, not interpreter start cost)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "..",
            "BENCH_faults.json",
        ),
    )
    args = parser.parse_args(argv)

    n = args.n or (400 if args.smoke else 20000)
    workers = 2 if args.smoke and args.workers == 4 else args.workers
    reps = 1 if args.smoke else args.reps

    graph = gen.preferential_attachment_graph(n, 5, seed=args.seed)
    flat = run_one_to_many(
        graph,
        OneToManyConfig(engine="flat", mode="lockstep", num_hosts=workers),
    )

    with tempfile.TemporaryDirectory(prefix="bench-faults-") as tmp:
        overhead = bench_checkpoint_overhead(
            graph, flat, workers, args.start_method, reps, tmp
        )
        for row in overhead:
            print(
                f"checkpoint {row['cadence']:>8s}: "
                f"{row['wall_seconds']:7.3f}s "
                f"({row['overhead_pct_vs_off']:+6.2f}% vs off, "
                f"{row['checkpoint_bytes']:>9d} snapshot bytes)",
                flush=True,
            )
        recovery = bench_recovery_latency(
            graph, flat, workers, args.start_method, tmp
        )
        for row in recovery:
            print(
                f"recovery {row['scenario']:>13s}: kill@{row['kill_round']} "
                f"-> resume in {row['recovery_seconds']:.3f}s "
                f"({row['replayed_rounds']} rounds replayed, "
                f"{row['resent_batches']} batches resent)",
                flush=True,
            )

    summary = {
        "n": graph.num_nodes,
        "workers": workers,
        "rounds": flat.stats.rounds_executed,
        "overhead_pct_every_5": overhead[1]["overhead_pct_vs_off"],
        "overhead_pct_every_1": overhead[2]["overhead_pct_vs_off"],
        "recovery_seconds_no_checkpoint": recovery[0]["recovery_seconds"],
        "recovery_seconds_with_checkpoint": recovery[1]["recovery_seconds"],
        "all_verified": all(
            r["verified"] for r in overhead + recovery
        ),
    }
    payload = {
        "benchmark": (
            "mp fleet fault tolerance: checkpoint overhead "
            "(off / every-5 / every-1) and kill-mid-run recovery latency"
        ),
        "smoke": args.smoke,
        "seed": args.seed,
        "reps": reps,
        "workers": workers,
        "start_method": args.start_method,
        "checkpoint_overhead": overhead,
        "recovery_latency": recovery,
        "summary": summary,
    }
    out_path = os.path.abspath(args.out)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(
        f"\ncheckpoint overhead at n={graph.num_nodes}: "
        f"{summary['overhead_pct_every_5']:+.2f}% (every 5), "
        f"{summary['overhead_pct_every_1']:+.2f}% (every round); "
        f"recovery {summary['recovery_seconds_with_checkpoint']:.3f}s "
        "with checkpoints"
    )
    print(f"-> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
