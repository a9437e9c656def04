"""Workload table and seeded inputs of the end-to-end benchmark.

Every input is a pure function of ``(workload, seed)``. The graph comes
from a :mod:`repro.datasets` generator, is written as a SNAP edge list
and is read back through :func:`repro.graph.io.read_edge_list`, exactly
like a user's file. Churn workloads also get a request stream from this
module's own seeded generator (``seed + 1``); the program sees only the
:class:`~repro.workloads.churn.ChurnEvent` batches, never the generator.

Run as a script, it prepares one workload's inputs in a directory and
prints their manifest (n, m, sha256 of the edge list and of the first
``PIN_REQUESTS`` churn requests)::

    PYTHONPATH=src python benchmarks/e2e/inputs.py --workload social-1to1 --seed 0 --out DIR

On the default seed the manifest must match the pins in ``spec.json``; a mismatch
exits non-zero, so a generator change cannot silently swap the inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "spec.json")

#: The seed whose inputs are pinned in ``spec.json``.
DEFAULT_SEED = 0
#: Requests of each churn stream covered by the pinned digest.
PIN_REQUESTS = 200


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: input, entry point and load shape."""

    name: str
    #: ``"decompose"`` (file -> coreness) or ``"churn"`` (ChurnService).
    kind: str
    #: Generator name in :mod:`repro.datasets` and its ``scale``.
    dataset: str
    scale: float
    #: ``decompose`` algorithm and options (decompose workloads).
    algorithm: str = ""
    options: dict = field(default_factory=dict)
    #: Churn stream shape: ``"joinleave"`` or ``"rewire"``.
    stream: str = ""
    #: Requests driven through the traced and the overhead phase of a
    #: traced churn run (fixed, so the per-layer counts repeat exactly).
    traced_requests: int = 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="social-1to1",
            kind="decompose",
            dataset="slashdot_like",
            scale=12,
            algorithm="one-to-one-flat",
            options={"backend": "numpy"},
        ),
        Workload(
            name="social-hosts16",
            kind="decompose",
            dataset="slashdot_like",
            scale=12,
            algorithm="one-to-many-flat",
            options={"num_hosts": 16, "backend": "numpy"},
        ),
        Workload(
            name="web-fleet",
            kind="decompose",
            dataset="web_berkstan_like",
            scale=6,
            algorithm="one-to-many-mp",
            options={"num_hosts": 2, "backend": "numpy"},
        ),
        Workload(
            name="overlay-joinleave",
            kind="churn",
            dataset="amazon_like",
            scale=10,
            stream="joinleave",
            traced_requests=400,
        ),
        Workload(
            name="overlay-rewire",
            kind="churn",
            dataset="slashdot_like",
            scale=1.5,
            stream="rewire",
            traced_requests=40,
        ),
    )
}

#: n~2k stand-ins used by ``run.py --smoke`` (stdlib backend, so the
#: smoke run also works where numpy is not installed).
SMOKE_WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="smoke-decompose",
            kind="decompose",
            dataset="slashdot_like",
            scale=0.5,
            algorithm="one-to-one-flat",
        ),
        Workload(
            name="smoke-churn",
            kind="churn",
            dataset="slashdot_like",
            scale=0.5,
            stream="rewire",
            traced_requests=8,
        ),
    )
}


def workload(name: str) -> Workload:
    """Look a workload up in either table; unknown names exit loudly."""
    found = WORKLOADS.get(name) or SMOKE_WORKLOADS.get(name)
    if found is None:
        raise SystemExit(
            f"unknown workload {name!r}; options: "
            f"{sorted(WORKLOADS) + sorted(SMOKE_WORKLOADS)}"
        )
    return found


# ----------------------------------------------------------------------
# churn streams
# ----------------------------------------------------------------------
def _swap_remove(items: list, index: int):
    """Remove ``items[index]`` in O(1) by moving the last item there."""
    item = items[index]
    last = items.pop()
    if index < len(items):
        items[index] = last
    return item


class JoinLeaveStream:
    """16 join/leave events per request, then a query of a live peer.

    Each event is a join (50%) linking a fresh id to two random live
    peers, or the leave of a random live peer. The generator keeps its
    own shadow of the live set, so every event is valid when replayed.
    """

    EVENTS_PER_REQUEST = 16

    def __init__(self, graph, seed: int) -> None:
        self._rng = random.Random(seed)
        self._live = sorted(graph.nodes())
        self._next_id = self._live[-1] + 1

    def request(self, index: int):
        from repro.workloads.churn import ChurnEvent

        rng = self._rng
        events = []
        for _ in range(self.EVENTS_PER_REQUEST):
            if rng.random() < 0.5:
                new = self._next_id
                self._next_id += 1
                contacts = tuple(rng.sample(self._live, 2))
                events.append(ChurnEvent(float(index), "join", (new, *contacts)))
                self._live.append(new)
            else:
                victim = _swap_remove(self._live, rng.randrange(len(self._live)))
                events.append(ChurnEvent(float(index), "leave", (victim,)))
        return events, self._live[rng.randrange(len(self._live))]


class RewireStream:
    """One rewire per request (unlink a live edge, link a non-adjacent
    pair of live peers), then a query of a random peer."""

    def __init__(self, graph, seed: int) -> None:
        self._rng = random.Random(seed)
        self._nodes = sorted(graph.nodes())
        self._edges = sorted(graph.edges())
        self._adj = {u: set(graph.neighbors(u)) for u in self._nodes}

    def request(self, index: int):
        from repro.workloads.churn import ChurnEvent

        rng = self._rng
        u, v = _swap_remove(self._edges, rng.randrange(len(self._edges)))
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        while True:
            a, b = rng.sample(self._nodes, 2)
            if b not in self._adj[a]:
                break
        a, b = min(a, b), max(a, b)
        self._edges.append((a, b))
        self._adj[a].add(b)
        self._adj[b].add(a)
        events = [
            ChurnEvent(float(index), "unlink", (u, v)),
            ChurnEvent(float(index), "link", (a, b)),
        ]
        return events, self._nodes[rng.randrange(len(self._nodes))]


STREAMS = {"joinleave": JoinLeaveStream, "rewire": RewireStream}


def request_stream(wl: Workload, graph, seed: int):
    """``wl``'s churn requests over ``graph``, as an endless iterator of
    ``(events, query)`` pairs (generator seeded with ``seed + 1``)."""
    stream = STREAMS[wl.stream](graph, seed + 1)
    return (stream.request(i) for i in itertools.count())


def request_digest(requests) -> str:
    """sha256 of a canonical text form of ``(events, query)`` requests."""
    digest = hashlib.sha256()
    for events, query in requests:
        body = ";".join(
            f"{e.kind}:{','.join(map(str, e.nodes))}" for e in events
        )
        digest.update(f"{body}|q={query}\n".encode())
    return digest.hexdigest()


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# preparation (child process; keeps generator memory out of the
# measured process's peak RSS)
# ----------------------------------------------------------------------
def prepare(wl: Workload, seed: int, out_dir: str) -> dict:
    """Write ``graph.txt`` (+ ``expected.json``) and ``manifest.json``."""
    import repro.datasets as datasets
    from repro.baselines.batagelj_zaversnik import batagelj_zaversnik
    from repro.graph.io import read_edge_list, write_edge_list

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "graph.txt")
    write_edge_list(getattr(datasets, wl.dataset)(scale=wl.scale, seed=seed), path)
    graph = read_edge_list(path)
    manifest = {
        "workload": wl.name,
        "seed": seed,
        "dataset": wl.dataset,
        "scale": wl.scale,
        "n": graph.num_nodes,
        "m": graph.num_edges,
        "bytes": os.path.getsize(path),
        "edges_sha256": file_digest(path),
    }
    if wl.kind == "decompose":
        # the BZ oracle, computed once outside every timed region
        core = batagelj_zaversnik(graph)
        with open(os.path.join(out_dir, "expected.json"), "w") as handle:
            json.dump([core[u] for u in range(graph.num_nodes)], handle)
    else:
        manifest["stream_sha256"] = request_digest(
            itertools.islice(request_stream(wl, graph, seed), PIN_REQUESTS)
        )
    check_pins(manifest)
    with open(os.path.join(out_dir, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=1)
    return manifest


PINNED_KEYS = ("n", "m", "edges_sha256", "stream_sha256")


def check_pins(manifest: dict) -> None:
    """On the default seed, fail loudly if an input drifted from its pin."""
    if manifest["seed"] != DEFAULT_SEED or manifest["workload"] not in WORKLOADS:
        return
    with open(SPEC_PATH) as handle:
        pinned = json.load(handle)["pins"].get(manifest["workload"])
    if pinned is None:
        raise SystemExit(f"no pin recorded for workload {manifest['workload']!r}")
    drift = {
        key: (pinned.get(key), manifest.get(key))
        for key in PINNED_KEYS
        if pinned.get(key) != manifest.get(key)
    }
    if drift:
        raise SystemExit(
            f"input drift on {manifest['workload']} seed {DEFAULT_SEED} "
            f"(pinned, generated): {drift}; the generator or the SNAP writer "
            "changed, so results are not comparable with the baseline"
        )


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True, help="directory for the inputs")
    args = parser.parse_args(argv)
    manifest = prepare(workload(args.workload), args.seed, args.out)
    print(json.dumps(manifest), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
