"""Timed and traced runs of one workload (the child process of run.py).

Untraced (``--trace 0``) the loops time the entry points a user calls:
``read_edge_list`` + ``decompose`` per rep, or ``submit`` +
``coreness_of`` per churn request, until ``--seconds`` of timed work
have accumulated. Every rep is checked (coreness against the BZ oracle,
rounds and messages against rep 1; ``ChurnService.verify()`` every
``VERIFY_EVERY`` requests with the clock paused).

Traced (``--trace 1``) the benchmark calls the same public functions the
runners compose, in the same order, each inside its own span, and hands
the same :class:`repro.telemetry.Tracer` to the engine so the engine's
spans (worker lanes included) nest under those calls. The composed
result must be bit-identical to the untraced ``decompose`` result. The
benchmark's own spans are named after the per-layer metrics of
``BENCHMARK.json``, minus the unit suffix; engine spans map to them
through ``MAIN_LANE_SPANS`` and the worker-lane sums.

Both modes write one JSON document to ``--out``: the contract result
(``correct`` / ``attempted`` / ``failed`` / ``metrics``) plus a
``detail`` block with sample counts and quartiles.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

from inputs import request_stream, workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Timed decompose reps / churn requests a run keeps at minimum,
#: whatever ``--seconds`` says (quartiles need a few samples).
MIN_SAMPLES = 3
#: Churn requests between two ``verify()`` checks (a full BZ
#: recomputation: ~0.3 s at n~50k, so checking more often than this
#: would double the wall time of a joinleave run).
VERIFY_EVERY = 250
#: Untimed churn requests before the clock starts (first-touch costs).
WARMUP_REQUESTS = 10
#: Churn set-up is timed in two rounds, one before and one after the
#: requests, each of at least this many reps and seconds: ``setup_s``
#: (their median) then spans the run instead of one moment of it.
SETUP_ROUND_REPS = 2
SETUP_ROUND_S = 1.0


def now() -> float:
    return time.perf_counter()


def quantile(values: "list[float]", q: float) -> float:
    """Linear-interpolation quantile of the sorted sample (0 <= q <= 1)."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def summary(values: "list[float]") -> dict:
    return {
        "count": len(values),
        "p25": quantile(values, 0.25),
        "p50": quantile(values, 0.5),
        "p75": quantile(values, 0.75),
        "p90": quantile(values, 0.9),
        "max": max(values),
    }


class Tally:
    """Attempted / failed operation counts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def _spans(events):
    return sorted((e for e in events if e[0] == "X"), key=lambda e: (e[2], -e[3]))


def span_times(events) -> "tuple[dict, dict]":
    """Per span name: total duration and self time (minus direct children)."""
    total: dict = {}
    own: dict = {}
    stack: list = []

    def close() -> None:
        name, t0, t1, child = stack.pop()
        own[name] = own.get(name, 0.0) + (t1 - t0) - child

    for _kind, name, t0, t1, _args in _spans(events):
        while stack and stack[-1][2] <= t0:
            close()
        if stack:
            stack[-1][3] += t1 - t0
        total[name] = total.get(name, 0.0) + (t1 - t0)
        stack.append([name, t0, t1, 0.0])
    while stack:
        close()
    return total, own


def per_parent(events, parent: str) -> "list[dict]":
    """Span totals grouped by the enclosing ``parent`` span occurrence."""
    spans = _spans(events)
    parents = [e for e in spans if e[1] == parent]
    starts = [e[2] for e in parents]
    groups: "list[dict]" = [{parent: e[3] - e[2]} for e in parents]
    for _kind, name, t0, t1, _args in spans:
        if name == parent:
            continue
        at = bisect.bisect_right(starts, t0) - 1
        if at >= 0 and t1 <= parents[at][3]:
            groups[at][name] = groups[at].get(name, 0.0) + (t1 - t0)
    return groups


def per_layer_names() -> "list[str]":
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [m["name"] for m in json.load(handle)["per_layer"]]


def aggregate(reps: "list[dict]", stat=statistics.median) -> dict:
    """``stat`` of each per-layer metric over traced reps; 0 where a
    layer is not on the workload's path."""
    return {
        name: stat([rep.get(name, 0.0) for rep in reps]) for name in per_layer_names()
    }


# ----------------------------------------------------------------------
# decompose workloads
# ----------------------------------------------------------------------
def observables(stats, estimates_sent) -> tuple:
    """What must repeat exactly across reps: rounds, messages, estimates."""
    return (stats.execution_time, stats.total_messages, estimates_sent)


def decompose_rep(wl, path: str):
    """One untraced user call, file -> coreness: returns the coreness, the
    observables, the read time and the end-to-end time."""
    from repro.core.api import decompose
    from repro.graph.io import read_edge_list

    t0 = now()
    graph = read_edge_list(path)
    t1 = now()
    result = decompose(graph, wl.algorithm, **wl.options)
    t2 = now()
    extra = result.stats.extra.get("estimates_sent_total")
    return result.coreness, observables(result.stats, extra), t1 - t0, t2 - t0


def _compose_one_to_one_flat(graph, options, tracer, out):
    from repro.graph.csr import CSRGraph
    from repro.sim.flat_engine import FlatOneToOneEngine

    with tracer.span("graph.csr.build"):
        csr = CSRGraph.from_graph(graph)
    with tracer.span("sim.flat_engine.run"):
        engine = FlatOneToOneEngine(
            csr, backend=options.get("backend", "stdlib"), telemetry=tracer
        )
        stats = engine.run()
    with tracer.span("core.result.package"):
        coreness = engine.coreness()
    out["sim.flat_engine.rounds"] = stats.execution_time
    out["sim.flat_engine.messages"] = stats.total_messages
    return coreness, observables(stats, None)


def _shard(graph, options, tracer, out):
    """Placement + CSR + partition, in the runners' order (assign first,
    so a shared seed is consumed as on the object path)."""
    from repro.core.assignment import assign
    from repro.graph.csr import CSRGraph
    from repro.graph.sharded import ShardedCSR

    with tracer.span("core.assignment.assign"):
        assignment = assign(graph, options["num_hosts"], policy="modulo", seed=0)
    with tracer.span("graph.csr.build"):
        csr = CSRGraph.from_graph(graph)
    with tracer.span("graph.sharded.build"):
        sharded = ShardedCSR(csr, assignment)
    out["core.assignment.cut_edges"] = sharded.cut_edges
    return sharded


def _compose_one_to_many_flat(graph, options, tracer, out):
    from repro.sim.flat_many_engine import FlatOneToManyEngine

    sharded = _shard(graph, options, tracer, out)
    with tracer.span("sim.flat_many_engine.run"):
        engine = FlatOneToManyEngine(
            sharded, mode="peersim", seed=0,
            backend=options.get("backend", "stdlib"), telemetry=tracer,
        )
        stats = engine.run()
    with tracer.span("core.result.package"):
        coreness = engine.coreness()
    sent = engine.estimates_sent_total()
    out["sim.flat_many_engine.rounds"] = stats.execution_time
    out["sim.flat_many_engine.estimates_sent"] = sent
    return coreness, observables(stats, sent)


def _compose_one_to_many_mp(graph, options, tracer, out):
    from repro.sim.mp_engine import MultiProcessOneToManyEngine

    sharded = _shard(graph, options, tracer, out)
    with tracer.span("sim.mp_engine.run"):
        engine = MultiProcessOneToManyEngine(
            sharded, mode="lockstep", seed=0,
            backend=options.get("backend", "stdlib"),
            start_method="spawn", transport="queue", telemetry=tracer,
        )
        stats = engine.run()
    with tracer.span("core.result.package"):
        coreness = engine.coreness()
    sent = engine.estimates_sent_total()
    out["sim.mp_engine.rounds"] = stats.execution_time
    out["sim.mp_engine.pipe_bytes"] = engine.pipe_bytes_total
    out["sim.mp_engine.shm_bytes"] = engine.shm_bytes_total
    out["sim.mp_engine.shard_payload_bytes"] = sum(engine.shard_payload_bytes)
    return coreness, observables(stats, sent)


#: The composition each runner performs behind ``decompose(algorithm)``
#: with the workloads' options (mode/policy/transport left at defaults).
COMPOSE = {
    "one-to-one-flat": _compose_one_to_one_flat,
    "one-to-many-flat": _compose_one_to_many_flat,
    "one-to-many-mp": _compose_one_to_many_mp,
}

#: Benchmark spans directly under the e2e window (anything else there
#: is unattributed time).
TOP_SPANS = (
    "graph.io.read", "core.assignment.assign", "graph.csr.build",
    "graph.sharded.build", "sim.flat_engine.run", "sim.flat_many_engine.run",
    "sim.mp_engine.run", "core.result.package",
)
#: Span totals reported as ``<span>_s`` when present on the main lane.
MAIN_LANE_SPANS = {
    "graph.io.read": "graph.io.read_s",
    "core.assignment.assign": "core.assignment.assign_s",
    "graph.csr.build": "graph.csr.build_s",
    "graph.sharded.build": "graph.sharded.build_s",
    "sim.flat_engine.run": "sim.flat_engine.run_s",
    "sim.flat_many_engine.run": "sim.flat_many_engine.run_s",
    "sim.mp_engine.run": "sim.mp_engine.run_s",
    "core.result.package": "core.result.package_s",
    "kernel.seed_estimates": "sim.kernels.seed_estimates_s",
    "kernel.fold_slots": "sim.kernels.fold_slots_s",
    "kernel.process_frontier": "sim.kernels.process_frontier_s",
    "kernel.cascade": "sim.kernels.cascade_s",
    "kernel.fold_mailbox": "sim.kernels.fold_mailbox_s",
    "kernel.seed_shard": "sim.kernels.seed_shard_s",
    "emit": "sim.flat_many_engine.emit_s",
    "spawn": "sim.mp_engine.spawn_s",
    "barrier.recv": "sim.mp_engine.barrier_wait_s",
    "gather.results": "sim.mp_engine.gather_s",
}
ROUND_SELF = {
    "one-to-one-flat": "sim.flat_engine.round_self_s",
    "one-to-many-flat": "sim.flat_many_engine.round_self_s",
}


def traced_decompose_rep(wl, path: str, file_bytes: int):
    """One composed, traced rep; returns coreness, observables, layers."""
    from repro.baselines.batagelj_zaversnik import batagelj_zaversnik
    from repro.graph.io import read_edge_list
    from repro.telemetry import Tracer

    tracer = Tracer()
    layers: dict = {}
    t0 = now()
    with tracer.span("graph.io.read"):
        graph = read_edge_list(path)
    coreness, obs = COMPOSE[wl.algorithm](graph, wl.options, tracer, layers)
    e2e = now() - t0
    bz0 = now()
    batagelj_zaversnik(graph)
    bz = now() - bz0

    buffers = tracer.buffers()
    total, own = span_times(buffers[0][1])
    for span, metric in MAIN_LANE_SPANS.items():
        if span in total:
            layers[metric] = total[span]
    if wl.algorithm in ROUND_SELF:
        layers[ROUND_SELF[wl.algorithm]] = own.get("round", 0.0)
    for _lane, events in buffers[1:]:
        worker, _own = span_times(events)
        wait = worker.get("mail.pull", 0.0)
        for metric, value in (
            ("sim.mp_engine.worker_busy_s", worker.get("round", 0.0) - wait),
            ("sim.mp_engine.worker_mail_wait_s", wait),
            ("sim.mp_engine.worker_cascade_s", worker.get("kernel.cascade", 0.0)),
            ("sim.mp_engine.worker_emit_s",
             worker.get("emit.serialize", 0.0) + worker.get("emit.shm_write", 0.0)),
        ):
            layers[metric] = layers.get(metric, 0.0) + value
    read = layers["graph.io.read_s"]
    layers["graph.io.mb_per_s"] = file_bytes / 1e6 / read
    layers["trace.e2e_s"] = e2e
    layers["trace.unattributed_s"] = e2e - sum(total.get(s, 0.0) for s in TOP_SPANS)
    layers["baselines.bz_s"] = bz
    layers["baselines.e2e_over_bz"] = (e2e - read) / bz
    return coreness, obs, layers


def run_decompose(wl, inputs: str, seconds: float, trace: bool) -> dict:
    path = os.path.join(inputs, "graph.txt")
    with open(os.path.join(inputs, "expected.json")) as handle:
        expected = dict(enumerate(json.load(handle)))
    file_bytes = os.path.getsize(path)
    tally = Tally()
    reference: list = []
    e2e: "list[float]" = []
    reads: "list[float]" = []
    traced: "list[dict]" = []

    def check(coreness, obs) -> bool:
        if not reference:
            reference.append(obs)
        return coreness == expected and obs == reference[0]

    def attempt(fn):
        try:
            return fn()
        except Exception:  # a failed rep is counted, not fatal
            traceback.print_exc()
            return None

    def timed() -> float:
        return sum(e2e) + sum(rep["trace.e2e_s"] for rep in traced)

    warmup = True
    while (warmup or len(e2e) < MIN_SAMPLES or timed() < seconds) and (
        tally.failed < MIN_SAMPLES
    ):
        gc.collect()
        rep = attempt(lambda: decompose_rep(wl, path))
        ok = rep is not None and check(rep[0], rep[1])
        tally.add(ok)
        if ok and not warmup:
            reads.append(rep[2])
            e2e.append(rep[3])
        warmup = False
        if trace:
            gc.collect()
            rep = attempt(lambda: traced_decompose_rep(wl, path, file_bytes))
            ok = rep is not None and check(rep[0], rep[1])
            tally.add(ok)
            if ok:
                traced.append(rep[2])
    detail = {"e2e_s": summary(e2e), "read_s": summary(reads)}
    if trace:
        metrics = aggregate(traced)
        metrics["trace.overhead"] = metrics["trace.e2e_s"] / statistics.median(e2e)
        detail["traced_reps"] = len(traced)
        return finish(tally, metrics, detail)
    return finish(tally, {
        "setup_s": statistics.median(reads),
        "e2e_p50_ms": statistics.median(e2e) * 1e3,
    }, detail)


# ----------------------------------------------------------------------
# churn workloads
# ----------------------------------------------------------------------
def setup_service(path: str):
    """The churn workloads' set-up: read the file, build the service."""
    from repro.graph.io import read_edge_list
    from repro.streaming.service import ChurnService

    t0 = now()
    graph = read_edge_list(path)
    service = ChurnService(graph)
    return graph, service, now() - t0


def setup_round(path: str, setups: "list[float]"):
    """Time set-ups (one live service at a time, so peak RSS counts one)
    until the round is long enough; returns the last graph and service."""
    first = len(setups)
    while True:
        gc.collect()
        graph, service, took = setup_service(path)
        setups.append(took)
        if len(setups) - first >= SETUP_ROUND_REPS and sum(setups[first:]) >= SETUP_ROUND_S:
            return graph, service
        del graph, service


def serve(service, requests, count: int, budget: float = float("inf")):
    """Closed loop, one client: submit, then query, up to ``count``
    requests or ``budget`` seconds of request time. Returns per-request
    latencies, events submitted and query answers."""
    latencies, events, answers = [], 0, []
    spent = 0.0
    while len(latencies) < count and spent < budget:
        batch, query = next(requests)
        t0 = now()
        service.submit(batch)
        answers.append(service.coreness_of(query))
        took = now() - t0
        latencies.append(took)
        spent += took
        events += len(batch)
    return latencies, events, answers


def run_churn(wl, inputs: str, seed: int, seconds: float, trace: bool) -> dict:
    path = os.path.join(inputs, "graph.txt")
    if trace:
        return traced_churn(wl, path, seed)
    setups: "list[float]" = []
    graph, service = setup_round(path, setups)
    requests = request_stream(wl, graph, seed)
    del graph
    tally = Tally()
    serve(service, requests, WARMUP_REQUESTS)
    tally.add(service.verify(), WARMUP_REQUESTS)
    latencies: "list[float]" = []
    events = 0
    while (len(latencies) < MIN_SAMPLES or sum(latencies) < seconds) and not tally.failed:
        block_lat, block_events, _ = serve(
            service, requests, VERIFY_EVERY, seconds - sum(latencies)
        )
        ok = service.verify()
        tally.add(ok, len(block_lat))
        if ok:
            latencies.extend(block_lat)
            events += block_events
    del service
    setup_round(path, setups)
    detail = {
        "request_s": summary(latencies),
        "setup_s": summary(setups),
        "updates_per_s": events / sum(latencies),
    }
    return finish(tally, {
        "setup_s": statistics.median(setups),
        "e2e_p50_ms": statistics.median(latencies) * 1e3,
    }, detail)


def traced_churn(wl, path: str, seed: int) -> dict:
    """A fixed request prefix twice: untraced (the overhead base), then
    traced through benchmark spans around read, construct, submit, flush
    and query, with the service's own spans nested under them."""
    from repro.baselines.batagelj_zaversnik import batagelj_zaversnik
    from repro.graph.io import read_edge_list
    from repro.streaming.service import ChurnService
    from repro.telemetry import Tracer

    count = wl.traced_requests
    tally = Tally()
    graph, service, _ = setup_service(path)
    bz0 = now()
    batagelj_zaversnik(graph)
    bz = now() - bz0
    plain, _, plain_answers = serve(service, request_stream(wl, graph, seed), count)
    tally.add(service.verify(), count)
    del graph, service
    gc.collect()

    tracer = Tracer()
    with tracer.span("graph.io.read"):
        graph = read_edge_list(path)
    with tracer.span("streaming.service.construct"):
        service = ChurnService(graph, telemetry=tracer)
    requests = request_stream(wl, graph, seed)
    del graph
    answers = []
    # nodes whose coreness really moved, from full snapshots taken
    # outside the request spans (the dirty count is the work spent)
    changed = 0
    previous = service.coreness()
    for _ in range(count):
        batch, query = next(requests)
        with tracer.span("request"):
            with tracer.span("streaming.service.submit"):
                service.submit(batch)
            with tracer.span("streaming.service.flush"):
                service.flush()
            with tracer.span("streaming.service.query"):
                answers.append(service.coreness_of(query))
        current = service.coreness()
        changed += len(previous.keys() - current.keys()) + sum(
            1 for node, core in current.items() if previous.get(node) != core
        )
        previous = current
    # bit-identical to the untraced pass: same answers, exact state
    tally.add(service.verify() and answers == plain_answers, count)

    events = tracer.events()
    total, _own = span_times(events)
    # the service was built fresh, so its counters cover exactly the
    # traced requests
    counts = service.metrics
    dirty = counts["dirty_nodes_total"]
    read = total["graph.io.read"]
    fixed = {
        "graph.io.read_s": read,
        "graph.io.mb_per_s": os.path.getsize(path) / 1e6 / read,
        "streaming.service.construct_s": total["streaming.service.construct"],
        "streaming.edits_applied": counts["edits_applied"],
        "streaming.dirty_nodes_total": dirty,
        "streaming.changed_nodes_total": changed,
        "streaming.useful_ratio": changed / dirty,
        "streaming.reconverge_rounds": sum(counts["reconverge_rounds_per_batch"]),
        "streaming.compactions": counts["compactions"],
        "baselines.bz_s": bz,
    }
    per_request = []
    for spans in per_parent(events, "request"):
        parts = {
            f"{name}_s": spans.get(name, 0.0)
            for name in (
                "streaming.service.submit",
                "streaming.service.flush",
                "streaming.service.query",
            )
        }
        per_request.append({
            **parts,
            "trace.e2e_s": spans["request"],
            "trace.unattributed_s": spans["request"] - sum(parts.values()),
        })
    # means, so the parts of a request add up to its time
    metrics = {**aggregate(per_request, statistics.fmean), **fixed}
    metrics["trace.overhead"] = metrics["trace.e2e_s"] / statistics.fmean(plain)
    metrics["baselines.e2e_over_bz"] = metrics["trace.e2e_s"] / bz
    return finish(tally, metrics, {"traced_requests": count})


def finish(tally: Tally, metrics: dict, detail: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "detail": detail,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="prepared input directory")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="result JSON path")
    args = parser.parse_args(argv)
    wl = workload(args.workload)
    trace = bool(args.trace)
    if wl.kind == "decompose":
        result = run_decompose(wl, args.inputs, args.seconds, trace)
    else:
        result = run_churn(wl, args.inputs, args.seed, args.seconds, trace)
    if not trace:
        # ru_maxrss is in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"]["peak_rss_mb"] = peak
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
