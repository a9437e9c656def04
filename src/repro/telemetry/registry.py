"""Typed schema for every ``SimulationStats.extra`` key in the tree.

Before this registry existed the extra dict was ad-hoc: each runner
invented keys, benchmarks guessed at their types, and a typo produced
a silently-missing metric instead of an error. :data:`METRICS` is now
the single source of truth — every key any runner writes is declared
here with a kind, a value type, a unit and one line of documentation,
and :func:`validate_extra` rejects undeclared keys or ill-typed values
loudly (it runs on every telemetry-enabled run and in the test suite).

Kinds follow the usual metrics vocabulary:

* ``counter`` — a monotone total for the run (messages, bytes, sweeps);
* ``gauge`` — a point-in-time or configuration value (host counts,
  derived ratios, labels);
* ``histogram`` — a per-round/per-superstep series, one sample per
  step (the distribution is the data, not a summary of it);
* ``event`` — a list of structured event dicts (worker recoveries).

The doc table in ``docs/telemetry.md`` is generated from this module's
:func:`schema_rows`, so registry and documentation cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TelemetryError

__all__ = [
    "METRICS",
    "MetricSpec",
    "schema_rows",
    "validate_extra",
]


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one ``stats.extra`` key."""

    name: str
    #: "counter" | "gauge" | "histogram" | "event"
    kind: str
    #: python type(s) of the value ("int", "float", "str", "int|None",
    #: "list[int]", "list[dict]") — validated, not just documented
    type: str
    #: measurement unit ("messages", "bytes", "hosts", "1" for
    #: dimensionless, "label" for strings)
    unit: str
    #: which runners emit it
    source: str
    doc: str


_SPECS = (
    MetricSpec(
        "estimates_sent_total", "counter", "int", "messages",
        "one-to-many (object/flat/mp)",
        "Figure-5 metric: total estimate payloads sent across hosts",
    ),
    MetricSpec(
        "estimates_sent_per_node", "gauge", "float", "messages/node",
        "one-to-many (object/flat/mp)",
        "estimates_sent_total normalised by node count",
    ),
    MetricSpec(
        "num_hosts", "gauge", "int", "hosts",
        "one-to-many (object/flat/mp)",
        "effective host count after placement",
    ),
    MetricSpec(
        "cut_edges", "gauge", "int", "edges",
        "one-to-many (object/flat/mp)",
        "edges crossing a host boundary under the placement",
    ),
    MetricSpec(
        "workers", "gauge", "int", "processes",
        "mp", "OS processes spawned (== num_hosts)",
    ),
    MetricSpec(
        "start_method", "gauge", "str", "label",
        "mp", "multiprocessing start method actually used (fork/spawn)",
    ),
    MetricSpec(
        "pipe_bytes_total", "counter", "int", "bytes",
        "mp", "pickled estimate-batch bytes crossing process queues",
    ),
    MetricSpec(
        "pipe_bytes_per_round", "histogram", "list[int]", "bytes",
        "mp", "per-round series of queue bytes (barrier-aligned)",
    ),
    MetricSpec(
        "shard_payload_bytes", "histogram", "list[int]", "bytes",
        "mp", "pickled HostShard size shipped to each worker at spawn",
    ),
    MetricSpec(
        "transport", "gauge", "str", "label",
        "mp", "estimate transport actually used (queue/shm)",
    ),
    MetricSpec(
        "shm_bytes_total", "counter", "int", "bytes",
        "mp (shm transport)",
        "estimate bytes written into shared-memory mailbox rings",
    ),
    MetricSpec(
        "shm_bytes_per_round", "histogram", "list[int]", "bytes",
        "mp (shm transport)",
        "per-round series of ring bytes (barrier-aligned)",
    ),
    MetricSpec(
        "cut_edges_after_refine", "gauge", "int", "edges",
        "one-to-many (policy='refined')",
        "cut edges under the greedily refined placement (== cut_edges)",
    ),
    MetricSpec(
        "recoveries", "event", "list[dict]", "events",
        "mp (fault-tolerant runs)",
        "one event dict per recovered worker (host, round, cause)",
    ),
    MetricSpec(
        "checkpoint_bytes", "counter", "int", "bytes",
        "mp (fault-tolerant runs)",
        "bytes committed by the checkpoint writer over the run",
    ),
    MetricSpec(
        "resumed_from_round", "gauge", "int|None", "round",
        "mp (fault-tolerant runs)",
        "round a resumed fleet restarted from (None: fresh run)",
    ),
    MetricSpec(
        "sweeps", "counter", "int", "sweeps",
        "h-index baseline", "full recomputation sweeps until fixpoint",
    ),
    MetricSpec(
        "supersteps", "counter", "int", "supersteps",
        "pregel", "Pregel supersteps executed",
    ),
    MetricSpec(
        "inter_worker_messages", "counter", "int", "messages",
        "pregel", "messages crossing a pregel worker boundary",
    ),
    MetricSpec(
        "intra_worker_messages", "counter", "int", "messages",
        "pregel", "messages staying within one pregel worker",
    ),
    MetricSpec(
        "combined_away", "counter", "int", "messages",
        "pregel", "messages removed by the min-combiner before delivery",
    ),
    MetricSpec(
        "active_per_superstep", "histogram", "list[int]", "vertices",
        "pregel", "active-vertex count per superstep",
    ),
    MetricSpec(
        "num_workers", "gauge", "int", "workers",
        "pregel", "pregel worker threads/partitions",
    ),
    MetricSpec(
        "edits_applied", "counter", "int", "edits",
        "streaming (flat engine)",
        "structural edits absorbed (joins, leaves, links, unlinks)",
    ),
    MetricSpec(
        "dirty_nodes_total", "counter", "int", "nodes",
        "streaming (flat engine)",
        "rows seeded into or touched by re-convergence, summed over batches",
    ),
    MetricSpec(
        "compactions", "counter", "int", "compactions",
        "streaming (flat engine)",
        "always 0: the dynamic CSR reuses freed rows and nothing is "
        "compacted (kept for the end-to-end benchmark's reader)",
    ),
    MetricSpec(
        "dirty_nodes_per_batch", "histogram", "list[int]", "nodes",
        "streaming (flat engine)",
        "per-batch series of dirty-row counts (locality of each batch)",
    ),
    MetricSpec(
        "reconverge_rounds_per_batch", "histogram", "list[int]", "rounds",
        "streaming (flat engine)",
        "per-batch series of Jacobi re-convergence rounds",
    ),
)

#: name -> spec; the registry proper.
METRICS: "dict[str, MetricSpec]" = {spec.name: spec for spec in _SPECS}


def _type_ok(value: object, type_decl: str) -> bool:
    if type_decl == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if type_decl == "float":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if type_decl == "str":
        return isinstance(value, str)
    if type_decl == "int|None":
        return value is None or (
            isinstance(value, int) and not isinstance(value, bool)
        )
    if type_decl == "list[int]":
        return isinstance(value, list) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        )
    if type_decl == "list[dict]":
        return isinstance(value, list) and all(
            isinstance(v, dict) for v in value
        )
    raise TelemetryError(f"unknown type declaration {type_decl!r}")


def validate_extra(extra: "dict[str, object]", where: str = "stats.extra") -> None:
    """Reject undeclared keys and ill-typed values in an extra dict.

    Raises :class:`~repro.errors.TelemetryError` naming the offending
    key; passing means every key is registered in :data:`METRICS` and
    its value matches the declared type. Runners call this on every
    telemetry-enabled run, so schema drift fails fast instead of
    producing a silently-unparseable metric.
    """
    for key, value in extra.items():
        spec = METRICS.get(key)
        if spec is None:
            raise TelemetryError(
                f"{where}[{key!r}] is not a registered metric; declare it "
                "in repro.telemetry.registry.METRICS (kind, type, unit, "
                "doc) before emitting it"
            )
        if not _type_ok(value, spec.type):
            raise TelemetryError(
                f"{where}[{key!r}] = {value!r} does not match the "
                f"registered type {spec.type!r} ({spec.kind} metric)"
            )


def schema_rows() -> "list[tuple[str, str, str, str, str]]":
    """(name, kind, type, unit, doc) rows in registration order.

    Feeds the CLI ``--telemetry`` summary and the schema table in
    ``docs/telemetry.md``.
    """
    return [(s.name, s.kind, s.type, s.unit, s.doc) for s in _SPECS]
