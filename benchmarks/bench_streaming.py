#!/usr/bin/env python
"""Streaming maintenance throughput: flat engine vs recompute-from-scratch.

The streaming tentpole's value proposition, measured on the paper's
own scenario: a live P2P overlay under steady-state churn (Poisson
joins balanced against exponential session expiries — exactly what
:func:`repro.workloads.churn.generate_churn_trace` produces with
rewiring off) over the Amazon0601 stand-in from the dataset families. The
churn batch is absorbed by :class:`~repro.streaming.FlatDynamicKCore`
(order-based inserts and a warm-started re-convergence after deletes
on one neighbour array per row) against the
only alternative a system without maintenance has — recomputing
Batagelj–Zaveršnik from scratch after every batch. Lanes:

* ``recompute``    — plain graph edits + full BZ per batch (baseline);
* ``object``       — the per-edit :class:`DynamicKCore` oracle;
* ``flat``         — the batched flat engine.

Every lane replays the *same* deterministic churn trace over the same
starting graph, and every row is verified: the final coreness map must
equal from-scratch BZ on the final graph (the flat engine must also
agree batch-for-batch with the oracle by the equivalence suite; here
the endpoint check keeps the timed region clean). Results land in
``BENCH_streaming.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_streaming.py            # full
    PYTHONPATH=src python benchmarks/bench_streaming.py --smoke    # CI

``--require-speedup X`` exits nonzero unless the flat lane beats the
recompute lane by at least ``X``x in updates/sec at the largest size
(and fails loudly if that pairing never ran).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.baselines import batagelj_zaversnik  # noqa: E402
from repro.datasets import amazon_like  # noqa: E402
from repro.streaming import FlatDynamicKCore  # noqa: E402
from repro.workloads.churn import (  # noqa: E402
    ChurnTrace,
    generate_churn_trace,
    replay_trace,
)

BATCH = 64

#: amazon_like(scale) yields ~4940 * scale nodes (380 groups of 13 at
#: scale 1); invert to hit a requested node count.
_AMAZON_NODES_PER_SCALE = 4940


def _steady_state_trace(graph, edits, seed):
    """A churn trace of ``edits`` events with the overlay population in
    steady state: per-capita leave rate 1/60 matched by an equal global
    join rate.  This is the paper's dynamics — peers arrive and depart;
    the overlay does not rewire surviving links (link/unlink edits stay
    pinned by the differential test grid).  Doubles the duration until
    the generator yields enough events, then truncates (a prefix of a
    trace is itself a valid trace)."""
    n = graph.num_nodes
    join_rate = n / 60.0
    duration = (60.0 * edits) / (2.0 * n) * 1.15
    while True:
        trace = generate_churn_trace(
            graph,
            duration=duration,
            join_rate=join_rate,
            mean_session=60.0,
            rewire_rate=0.0,
            seed=seed,
        )
        if len(trace.events) >= edits:
            return ChurnTrace(initial=trace.initial, events=trace.events[:edits])
        duration *= 2.0


def _apply_plain(graph, event):
    """Apply one churn event to a bare graph with the exact guard
    semantics of :func:`replay_trace` (so every lane sees the same
    final graph)."""
    if event.kind == "join":
        new, *contacts = event.nodes
        graph.add_node(new)
        for contact in contacts:
            if graph.has_node(contact):
                graph.add_edge(new, contact)
    elif event.kind == "leave":
        (victim,) = event.nodes
        if graph.has_node(victim):
            graph.remove_node(victim)
    elif event.kind == "link":
        u, v = event.nodes
        if graph.has_node(u) and graph.has_node(v) and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    else:  # unlink
        u, v = event.nodes
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)


def _final_oracle(trace):
    """BZ coreness of the end state (computed once, outside timing)."""
    current = trace.initial.copy()
    for event in trace.events:
        _apply_plain(current, event)
    return current, batagelj_zaversnik(current)


def _run_recompute(trace):
    current = trace.initial.copy()
    coreness = None
    start = time.perf_counter()
    for at in range(0, len(trace.events), BATCH):
        for event in trace.events[at:at + BATCH]:
            _apply_plain(current, event)
        coreness = batagelj_zaversnik(current)
    return time.perf_counter() - start, coreness


def _run_object(trace):
    start = time.perf_counter()
    engine = replay_trace(trace, engine="object")
    return time.perf_counter() - start, dict(engine.coreness)


def _run_flat(trace):
    engine = FlatDynamicKCore(trace.initial)
    start = time.perf_counter()
    engine = replay_trace(trace, engine=engine, batch_size=BATCH)
    secs = time.perf_counter() - start
    return secs, dict(engine.coreness), dict(engine.metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, equivalence-focused; for CI",
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="override node counts (default: 5000 20000 50000)",
    )
    parser.add_argument(
        "--edits", type=int, default=None,
        help="churn-trace length (default 1024; smoke 192)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--require-speedup", type=float, default=None, metavar="X",
        help="exit nonzero unless the flat lane beats recompute "
        "by Xx updates/sec at the largest size",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "..",
            "BENCH_streaming.json",
        ),
    )
    args = parser.parse_args(argv)

    sizes = args.sizes or ([800] if args.smoke else [5000, 20000, 50000])
    edits = args.edits or (192 if args.smoke else 1024)

    results = []
    mixes = {}
    for n in sizes:
        graph = amazon_like(
            scale=n / _AMAZON_NODES_PER_SCALE, seed=args.seed
        )
        trace = _steady_state_trace(graph, edits, seed=args.seed + 1)
        mixes[str(n)] = trace.counts()
        _, oracle = _final_oracle(trace)

        lanes = [("recompute", lambda: _run_recompute(trace)),
                 ("object", lambda: _run_object(trace)),
                 ("flat", lambda: _run_flat(trace))]
        for lane, run in lanes:
            outcome = run()
            secs, coreness = outcome[0], outcome[1]
            metrics = outcome[2] if len(outcome) > 2 else None
            if coreness != oracle:
                raise AssertionError(
                    f"{lane} final coreness != BZ oracle at n={n}"
                )
            row = {
                "lane": lane,
                "family": "amazon-like",
                "workload": "steady-state join/leave churn",
                "n": graph.num_nodes,
                "edits": edits,
                "batch": BATCH,
                "seconds": round(secs, 6),
                "updates_per_sec": round(edits / secs, 1),
                "verified": True,
            }
            if metrics is not None:
                row["dirty_nodes_total"] = metrics["dirty_nodes_total"]
                row["reconverge_rounds"] = sum(
                    metrics["reconverge_rounds_per_batch"]
                )
            results.append(row)
            print(
                f"{lane:>12s} amazon-like n={graph.num_nodes:>6d} "
                f"{secs:8.3f}s ({row['updates_per_sec']:>10.1f} updates/s)",
                flush=True,
            )

    top_n = max(r["n"] for r in results)
    base = {
        r["lane"]: r["updates_per_sec"] for r in results if r["n"] == top_n
    }
    speedups = {}
    if "recompute" in base:
        for lane, rate in sorted(base.items()):
            if lane != "recompute":
                speedups[lane] = round(rate / base["recompute"], 2)
    flat = speedups.get("flat")
    payload = {
        "benchmark": "streaming maintenance vs recompute-from-scratch",
        "smoke": args.smoke,
        "seed": args.seed,
        "batch": BATCH,
        "event_mix_per_size": mixes,
        "largest_n": top_n,
        "results": results,
        "speedups_over_recompute_at_largest_n": speedups,
        "flat_speedup_at_largest_n": flat,
    }
    out_path = os.path.abspath(args.out)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    if speedups:
        print(f"\nspeedups over recompute at n={top_n}: {speedups}")
    print(f"-> {out_path}")

    if args.require_speedup is not None:
        if flat is None:
            # a gate on a pairing that never ran is a misconfiguration,
            # not a pass
            print(
                "FAIL: --require-speedup given but no flat/recompute "
                "pair was benchmarked",
                file=sys.stderr,
            )
            return 1
        if flat < args.require_speedup:
            print(
                f"FAIL: flat speedup {flat:.2f}x < required "
                f"{args.require_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
