"""Command-line interface: ``python -m repro`` / ``repro-kcore``.

Subcommands:

* ``decompose`` — compute the coreness of an edge-list file (or a named
  synthetic dataset) with any of the implemented algorithms.
* ``stats`` — print the Table-1-style structural summary of a graph.
* ``table1`` — regenerate the paper's Table 1 over the dataset registry.
* ``churn`` — replay a synthetic churn trace through a streaming
  maintenance engine (``--engine flat``, the default, for the
  dynamic-CSR fast path) and report the maintenance cost.
* ``datasets`` — list the registered dataset stand-ins.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.api import ALGORITHMS, decompose
from repro.errors import ConfigurationError, DatasetError, GraphIOError
from repro.graph.io import read_edge_list
from repro.graph.stats import compute_stats
from repro.utils.tables import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-kcore",
        description="Distributed k-core decomposition (PODC 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="compute coreness of a graph")
    source = dec.add_mutually_exclusive_group(required=True)
    source.add_argument("--edges", help="path to a SNAP-style edge list")
    source.add_argument("--dataset", help="name of a registered dataset")
    source.add_argument(
        "--resume", metavar="CHECKPOINT_DIR",
        help="resume an interrupted --engine mp run from its checkpoint "
        "directory (graph, algorithm and all engine settings come from "
        "the checkpoint manifest, so no other flags apply)",
    )
    dec.add_argument(
        "--algorithm", default=None, choices=sorted(ALGORITHMS),
        help="decomposition algorithm (default one-to-one)",
    )
    dec.add_argument("--hosts", type=int, default=None,
                     help="host count (one-to-many and pregel; default 4)")
    dec.add_argument(
        "--engine", default=None, choices=("round", "flat", "mp", "async"),
        help="execution engine for one-to-one, one-to-many and pregel "
        "(default round; flat = CSR fast path, sharded for one-to-many; "
        "mp = one OS process per host shard, one-to-many only)",
    )
    dec.add_argument(
        "--workers", type=int, default=None,
        help="worker process count for --engine mp (one OS process per "
        "host shard, so this sets the host count; >= 2)",
    )
    dec.add_argument(
        "--backend", default=None, choices=("stdlib", "numpy"),
        help="flat-kernel backend for the flat engines and baselines "
        "(default stdlib; numpy = vectorised kernels, bit-identical "
        "results, rejected by the config layer when numpy is not "
        "installed or the target engine runs no kernels)",
    )
    dec.add_argument(
        "--mode", default=None, choices=("peersim", "lockstep"),
        help="activation mode for the round/flat engines; applies to "
        "one-to-one/one-to-many (default peersim) and one-to-one-flat "
        "(default lockstep)",
    )
    dec.add_argument(
        "--communication", default=None, choices=("broadcast", "p2p"),
        help="host-to-host medium (one-to-many only; default broadcast)",
    )
    dec.add_argument(
        "--policy", default=None,
        choices=("modulo", "block", "random", "bfs", "refined"),
        help="node->host placement policy (one-to-many only; "
        "default the paper's modulo; refined = modulo post-processed "
        "by a greedy cut-reducing boundary pass)",
    )
    dec.add_argument(
        "--transport", default=None, choices=("queue", "shm"),
        help="estimate transport for --engine mp (default queue = "
        "pickled batches over process queues; shm = zero-pickle "
        "shared-memory mailbox rings, bit-identical results)",
    )
    dec.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="--engine mp only: snapshot the fleet every N rounds into "
        "--checkpoint-dir (atomic, resumable with --resume)",
    )
    dec.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="directory for --checkpoint-every snapshots (required "
        "together with it)",
    )
    dec.add_argument(
        "--telemetry", action="store_true",
        help="trace the run (rounds, kernel phases, and per-worker "
        "lanes under --engine mp) and print a span summary table; a "
        "pure observer — results are bit-identical either way",
    )
    dec.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the collected trace to PATH — Chrome trace-event "
        "JSON loadable in Perfetto / chrome://tracing (or JSON Lines "
        "when PATH ends in .jsonl); implies --telemetry",
    )
    dec.add_argument("--seed", type=int, default=0)
    dec.add_argument("--scale", type=float, default=1.0,
                     help="dataset scale factor (synthetic datasets only)")
    dec.add_argument("--top", type=int, default=10,
                     help="print the TOP nodes by coreness")

    stats = sub.add_parser("stats", help="structural summary of a graph")
    stats_source = stats.add_mutually_exclusive_group(required=True)
    stats_source.add_argument("--edges")
    stats_source.add_argument("--dataset")
    stats.add_argument("--scale", type=float, default=1.0)
    stats.add_argument("--seed", type=int, default=0)

    table1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    table1.add_argument("--scale", type=float, default=1.0)
    table1.add_argument("--repetitions", type=int, default=5)
    table1.add_argument("--seed", type=int, default=0)
    table1.add_argument(
        "--only", nargs="*", default=None, help="subset of dataset names"
    )
    table1.add_argument(
        "--engine", default="round", choices=("round", "flat"),
        help="run the repetitions on the object or the flat CSR engine "
        "(bit-identical results; flat is faster at scale)",
    )

    churn = sub.add_parser(
        "churn",
        help="replay a synthetic churn trace through a maintenance engine",
    )
    churn_source = churn.add_mutually_exclusive_group(required=True)
    churn_source.add_argument("--edges", help="path to a SNAP-style edge list")
    churn_source.add_argument("--dataset", help="name of a registered dataset")
    churn.add_argument("--scale", type=float, default=0.3,
                       help="dataset scale factor (synthetic datasets only)")
    churn.add_argument("--seed", type=int, default=0,
                       help="seeds both the graph and the trace")
    churn.add_argument("--duration", type=float, default=100.0,
                       help="simulated seconds of churn")
    churn.add_argument("--join-rate", type=float, default=0.5)
    churn.add_argument("--mean-session", type=float, default=60.0)
    churn.add_argument("--rewire-rate", type=float, default=0.3)
    churn.add_argument(
        "--engine", default="flat", choices=("object", "flat"),
        help="maintenance engine: the object-graph oracle or the "
        "dynamic-CSR flat engine (default flat; bit-identical coreness)",
    )
    churn.add_argument(
        "--batch-size", type=int, default=64, metavar="N",
        help="events per apply_events batch on the flat engine "
        "(the object oracle always replays per-event)",
    )
    churn.add_argument(
        "--verify-every", type=int, default=None, metavar="N",
        help="cross-check against full recomputation every N events "
        "(slow; for spot checks); the flat engine is checked between "
        "batches, so an N below --batch-size shrinks every batch to N "
        "events",
    )
    churn.add_argument(
        "--telemetry", action="store_true",
        help="trace the replay (churn.apply_batch / kernel.reconverge "
        "spans) and print a span summary table",
    )
    churn.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the collected trace to PATH (Chrome trace-event "
        "JSON, or JSON Lines when PATH ends in .jsonl); implies "
        "--telemetry",
    )
    churn.add_argument("--top", type=int, default=10,
                       help="print the TOP nodes by final coreness")

    sub.add_parser("datasets", help="list registered datasets")

    fingerprint = sub.add_parser(
        "fingerprint", help="ASCII k-core fingerprint (LaNet-vi style)"
    )
    fp_source = fingerprint.add_mutually_exclusive_group(required=True)
    fp_source.add_argument("--edges")
    fp_source.add_argument("--dataset")
    fingerprint.add_argument("--scale", type=float, default=0.3)
    fingerprint.add_argument("--seed", type=int, default=0)
    fingerprint.add_argument("--width", type=int, default=72)
    fingerprint.add_argument("--height", type=int, default=30)
    return parser


def _load_graph(args: argparse.Namespace):
    from repro.datasets import load

    if getattr(args, "edges", None):
        try:
            return read_edge_list(args.edges)
        except OSError as exc:
            raise GraphIOError(f"{args.edges}: {exc.strerror or exc}") from exc
    return load(args.dataset, scale=args.scale, seed=args.seed if hasattr(args, "seed") else 0)


def _print_result(result, top: int) -> None:
    print(
        f"algorithm: {result.algorithm}  k_max={result.max_coreness}  "
        f"k_avg={result.average_coreness:.2f}"
    )
    if result.stats.rounds_executed:
        print(
            f"rounds={result.stats.execution_time}  "
            f"messages={result.stats.total_messages}"
        )
    rows = [
        (node, result.coreness[node])
        for node in result.top_spreaders(top)
    ]
    print(format_table(("node", "coreness"), rows, title="top nodes"))
    shells = result.shell_sizes()
    print(format_table(
        ("k", "shell size"), sorted(shells.items()), title="shell sizes"
    ))


def _make_tracer(args: argparse.Namespace, fleet: bool):
    """The CLI's tracer (or ``None``): built here, not in the config
    layer, so the summary table can be printed after the run."""
    if not (args.telemetry or args.trace_out):
        return None
    from repro.telemetry import Tracer

    return Tracer(lane="coordinator" if fleet else "main")


def _print_telemetry(tracer, trace_out: "str | None") -> None:
    if tracer is None:
        return
    from repro.telemetry import summary_table

    print(summary_table(tracer.buffers()))
    if trace_out:
        print(f"trace written: {trace_out}")


def _setting_flags(args: argparse.Namespace) -> "list[tuple[str, str, object]]":
    """``(flag, option, value)`` for every flag that sets an option of
    the run; ``--workers`` is the fleet's host count."""
    checkpoint = None
    if args.checkpoint_every is not None or args.checkpoint_dir is not None:
        checkpoint = (args.checkpoint_every, args.checkpoint_dir)
    return [
        ("--hosts", "num_hosts", args.hosts),
        ("--engine", "engine", args.engine),
        ("--workers", "num_hosts", args.workers),
        ("--backend", "backend", args.backend),
        ("--mode", "mode", args.mode),
        ("--communication", "communication", args.communication),
        ("--policy", "policy", args.policy),
        ("--transport", "mp_transport", args.transport),
        ("--checkpoint-every/--checkpoint-dir", "checkpoint", checkpoint),
    ]


def _flag_taken(path, flag: str, option: str) -> bool:
    """Whether table row ``path`` takes ``flag``: ``--workers`` sets
    ``num_hosts``, but only as the fleet's process count."""
    return path.fleet if flag == "--workers" else path.takes(option)


def _decompose_options(args: argparse.Namespace, algorithm: str):
    """The ``decompose`` options the flags set. A flag the table row
    it selects does not take is rejected by name — the CLI never drops
    a flag the user typed; value conflicts (``--mode`` on an engine
    without that mode, ...) are left to ``decompose``."""
    from repro.core.paths import PATHS, select

    engine = args.engine
    rows = [p for p in PATHS if p.algorithm == algorithm]
    if engine == "round" and all(p.engine != "round" for p in rows):
        # --engine round names an algorithm's object engine, which
        # pregel calls "object"
        engine = next((p.engine for p in rows if p.engine), engine)
    path = select(algorithm, engine)
    options: dict[str, object] = {}
    if path.takes("seed"):
        options["seed"] = args.seed
    for flag, option, value in _setting_flags(args):
        if value is None:
            continue
        if flag == "--hosts" and path.takes("num_workers"):
            option = "num_workers"
        if not _flag_taken(path, flag, option):
            takers = [p.engine for p in rows if _flag_taken(p, flag, option)]
            where = f"algorithm {algorithm!r}"
            if path.engine is not None:
                where += f" on engine={path.engine!r}"
            hint = f"; it needs --engine {' or '.join(takers)}" if takers else ""
            raise ConfigurationError(f"{flag} has no meaning for {where}{hint}")
        options[option] = value
    if args.workers is not None and args.hosts not in (None, args.workers):
        raise ConfigurationError(
            f"--hosts {args.hosts} conflicts with --workers {args.workers}: "
            "the mp engine runs one OS process per host shard, so they "
            "name the same number — pass just one"
        )
    if engine is not None:
        options["engine"] = engine
    if "checkpoint" in options:
        every, directory = args.checkpoint_every, args.checkpoint_dir
        if every is None or directory is None:
            raise ConfigurationError(
                "--checkpoint-every and --checkpoint-dir name one policy "
                "(how often, where) and must be passed together"
            )
        from repro.sim.checkpoint import CheckpointPolicy

        options["checkpoint"] = CheckpointPolicy(
            every_n_rounds=every, dir=directory
        )
    if args.telemetry or args.trace_out:
        if not path.takes("telemetry"):
            raise ConfigurationError(
                "--telemetry/--trace-out have no meaning for algorithm "
                f"{algorithm!r}: span tracing instruments the engines that "
                "run in rounds"
            )
        options["telemetry"] = _make_tracer(args, path.fleet)
        options["trace_out"] = args.trace_out
    return options


def _cmd_decompose(args: argparse.Namespace) -> int:
    if args.resume is not None:
        # everything about a resumed run — graph, algorithm, engine
        # settings — is fixed by the checkpoint manifest; a flag that
        # tried to change any of it would be silently ignored, so
        # reject instead
        for flag, _option, value in [
            ("--algorithm", "", args.algorithm), *_setting_flags(args)
        ]:
            if value is not None:
                raise ConfigurationError(
                    f"{flag} cannot be combined with --resume: a resumed "
                    "run takes every setting from the checkpoint "
                    "manifest (further checkpoints keep landing in the "
                    "same directory)"
                )
        from repro.core.one_to_many import resume_from_checkpoint

        # --telemetry/--trace-out are deliberately allowed with
        # --resume: spans are observations, not checkpointed protocol
        # state, so tracing the resumed portion changes nothing
        tracer = _make_tracer(args, fleet=True)
        result = resume_from_checkpoint(
            args.resume, telemetry=tracer, trace_out=args.trace_out
        )
        print(
            f"resumed: {args.resume}  nodes={len(result.coreness)}  "
            f"from_round={result.stats.extra.get('resumed_from_round')}"
        )
        _print_result(result, args.top)
        _print_telemetry(tracer, args.trace_out)
        return 0
    algorithm = args.algorithm or "one-to-one"
    options = _decompose_options(args, algorithm)
    graph = _load_graph(args)
    result = decompose(graph, algorithm, **options)
    print(
        f"graph: {graph.name or 'stdin'}  nodes={graph.num_nodes} "
        f"edges={graph.num_edges}"
    )
    _print_result(result, args.top)
    _print_telemetry(options.get("telemetry"), args.trace_out)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.baselines.batagelj_zaversnik import batagelj_zaversnik

    graph = _load_graph(args)
    summary = compute_stats(graph, coreness=batagelj_zaversnik(graph))
    rows = [
        ("nodes", summary.num_nodes),
        ("edges", summary.num_edges),
        ("min degree", summary.min_degree),
        ("max degree", summary.max_degree),
        ("avg degree", round(summary.avg_degree, 2)),
        ("components", summary.num_components),
        ("largest component", summary.largest_component_size),
        ("diameter" + ("" if summary.diameter_is_exact else " (lower bound)"),
         summary.diameter),
        ("k_max", summary.coreness_max),
        ("k_avg", round(summary.coreness_avg or 0.0, 2)),
    ]
    print(format_table(("statistic", "value"), rows,
                       title=f"stats: {graph.name or 'graph'}"))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.reports import Table1Row, table1_row
    from repro.datasets import PAPER_DATASETS

    rows = []
    for spec in PAPER_DATASETS:
        if args.only and spec.name not in args.only:
            continue
        graph = spec.build(scale=args.scale, seed=args.seed)
        row = table1_row(
            graph,
            repetitions=args.repetitions,
            seed=args.seed,
            engine=args.engine,
        )
        rows.append(row.as_list())
        print(f"... {spec.name} done", file=sys.stderr)
    print(format_table(Table1Row.HEADERS, rows, title="Table 1 (reproduced)"))
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    from repro.workloads import generate_churn_trace, replay_trace

    graph = _load_graph(args)
    trace = generate_churn_trace(
        graph,
        duration=args.duration,
        join_rate=args.join_rate,
        mean_session=args.mean_session,
        rewire_rate=args.rewire_rate,
        seed=args.seed,
    )
    counts = trace.counts()
    print(
        f"graph: {graph.name or 'stdin'}  nodes={graph.num_nodes} "
        f"edges={graph.num_edges}"
    )
    print(
        f"trace: {len(trace)} events  "
        + "  ".join(f"{k}={counts.get(k, 0)}"
                    for k in ("join", "leave", "link", "unlink"))
    )
    tracer = None
    if args.telemetry or args.trace_out:
        from repro.telemetry import Tracer

        tracer = Tracer()
    engine = replay_trace(
        trace,
        engine=args.engine,
        verify_every=args.verify_every,
        batch_size=args.batch_size,
        telemetry=tracer,
    )
    metrics = engine.metrics
    batches = metrics["dirty_nodes_per_batch"]
    rows: "list[tuple[str, object]]" = [
        ("engine", args.engine),
        ("edits applied", metrics["edits_applied"]),
        ("dirty nodes total", metrics["dirty_nodes_total"]),
        ("batches", len(batches)),
        ("max dirty/batch", max(batches, default=0)),
    ]
    if args.engine == "flat":
        rounds = metrics["reconverge_rounds_per_batch"]
        rows.append(("reconverge rounds", sum(rounds)))
    print(format_table(("metric", "value"), rows, title="maintenance cost"))
    coreness = engine.coreness
    top = sorted(coreness, key=lambda u: (-coreness[u], u))[:args.top]
    print(format_table(
        ("node", "coreness"), [(u, coreness[u]) for u in top],
        title="top nodes (final)",
    ))
    if tracer is not None:
        from repro.telemetry import finish_run_telemetry

        finish_run_telemetry(tracer, args.trace_out)
    _print_telemetry(tracer, args.trace_out)
    return 0


def _cmd_datasets(_args: argparse.Namespace) -> int:
    from repro.datasets import PAPER_DATASETS

    rows = [
        (
            spec.name,
            spec.paper_name,
            int(spec.paper["num_nodes"]),
            int(spec.paper["kmax"]),
            spec.paper["tavg"],
        )
        for spec in PAPER_DATASETS
    ]
    print(format_table(
        ("name", "paper dataset", "paper |V|", "paper kmax", "paper tavg"),
        rows,
        title="registered datasets (synthetic stand-ins)",
    ))
    return 0


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    from repro.analysis.fingerprint import core_fingerprint, render_fingerprint
    from repro.baselines.batagelj_zaversnik import batagelj_zaversnik

    graph = _load_graph(args)
    coreness = batagelj_zaversnik(graph)
    layout = core_fingerprint(graph, coreness, seed=args.seed)
    print(
        f"{graph.name or 'graph'}: {graph.num_nodes} nodes, "
        f"k_max={layout.max_coreness}"
    )
    print(render_fingerprint(layout, coreness,
                             width=args.width, height=args.height))
    return 0


_COMMANDS = {
    "decompose": _cmd_decompose,
    "stats": _cmd_stats,
    "table1": _cmd_table1,
    "churn": _cmd_churn,
    "datasets": _cmd_datasets,
    "fingerprint": _cmd_fingerprint,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GraphIOError, DatasetError, ConfigurationError) as exc:
        # bad input or a rejected flag combination is a usage error:
        # one line, argparse's exit code
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
