#!/usr/bin/env python3
"""Extension: tracking coreness in a churning overlay.

The one-to-one scenario is a *live* system — peers join, leave, and
rewire. Rather than re-running the full protocol after every change,
the streaming engine re-converges only the affected region (the
locality theorem bounds it). This example simulates a session of
overlay churn and reports how little work each event costs, verifying
against full recomputation as it goes.

Run:  python examples/live_overlay_churn.py
"""

import random
import time

from repro.datasets import load
from repro.streaming import DynamicKCore
from repro.utils.tables import format_table
from repro.workloads.churn import generate_churn_trace, replay_trace


def main() -> None:
    overlay = load("gnutella", scale=0.4, seed=42)
    engine = DynamicKCore(overlay)
    rng = random.Random(7)
    nodes = sorted(overlay.nodes())
    next_peer = max(nodes) + 1

    print(
        f"overlay: {overlay.num_nodes} peers, {overlay.num_edges} links, "
        f"k_max={max(engine.coreness.values())}\n"
    )

    events = []
    touched = []
    for step in range(120):
        roll = rng.random()
        if roll < 0.35:
            # new peer joins and connects to two random contacts
            contacts = rng.sample(sorted(engine.graph.nodes()), 2)
            engine.add_node(next_peer)
            total = 1
            for contact in contacts:
                engine.insert_edge(next_peer, contact)
                total += engine.touched_last_op
            events.append("join")
            touched.append(total)
            next_peer += 1
        elif roll < 0.55:
            # a peer leaves
            candidates = sorted(engine.graph.nodes())
            victim = candidates[rng.randrange(len(candidates))]
            engine.remove_node(victim)
            events.append("leave")
            touched.append(engine.touched_last_op)
        else:
            # rewiring: drop one link, add another
            edges = list(engine.graph.edges())
            u, v = edges[rng.randrange(len(edges))]
            engine.delete_edge(u, v)
            total = engine.touched_last_op
            peers = sorted(engine.graph.nodes())
            while True:
                a, b = rng.sample(peers, 2)
                if not engine.graph.has_edge(a, b):
                    engine.insert_edge(a, b)
                    break
            total += engine.touched_last_op
            events.append("rewire")
            touched.append(total)

        if step % 30 == 29:
            assert engine.verify(), "incremental state diverged!"

    by_kind: dict[str, list[int]] = {}
    for kind, count in zip(events, touched):
        by_kind.setdefault(kind, []).append(count)

    n = engine.graph.num_nodes
    rows = [
        (
            kind,
            len(counts),
            round(sum(counts) / len(counts), 1),
            max(counts),
            f"{100 * (sum(counts) / len(counts)) / n:.2f}%",
        )
        for kind, counts in sorted(by_kind.items())
    ]
    print(format_table(
        ("event", "count", "avg nodes touched", "max", "avg % of overlay"),
        rows,
        title="per-event maintenance cost over 120 churn events",
    ))
    print(
        f"\nfinal overlay: {n} peers, k_max="
        f"{max(engine.coreness.values())}; periodic full-recompute "
        "verification passed throughout."
    )

    # ------------------------------------------------------------------
    # object vs flat: the same steady-state churn trace through both
    # maintenance engines. The object engine replays per event; the
    # flat engine absorbs 32-event batches on the dynamic CSR, one
    # neighbour array per row.
    # ------------------------------------------------------------------
    peers = overlay.num_nodes
    trace = generate_churn_trace(
        overlay,
        duration=(60.0 * 600) / (2.0 * peers),
        join_rate=peers / 60.0,
        mean_session=60.0,
        rewire_rate=0.0,
        seed=11,
    )
    lanes = [
        ("object (per-edit)", {"engine": "object"}),
        ("flat (batch=32)", {"engine": "flat", "batch_size": 32}),
    ]
    rows = []
    final = None
    for label, kwargs in lanes:
        start = time.perf_counter()
        replayed = replay_trace(trace, **kwargs)
        secs = time.perf_counter() - start
        rows.append((
            label,
            len(trace),
            f"{len(trace) / secs:,.0f}",
            replayed.metrics["dirty_nodes_total"],
        ))
        if final is None:
            final = dict(replayed.coreness)
        else:
            assert dict(replayed.coreness) == final, (
                f"{label} diverged from the object engine"
            )
    print()
    print(format_table(
        ("engine", "events", "updates/sec", "nodes re-evaluated"),
        rows,
        title=f"replaying {len(trace)} churn events, all engines agree",
    ))


if __name__ == "__main__":
    main()
