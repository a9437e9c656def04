"""Flat, array-based execution of the one-to-one protocol.

**Object engine vs flat engines.** :class:`repro.sim.engine.RoundEngine`
is the general simulator: it runs *any* :class:`~repro.sim.node.Process`
subclass, supports observers, and the async variants — and pays for that
generality in Python objects. A single protocol round allocates a
``(sender, payload)`` tuple per message, a fresh list per delivered
mailbox, a pid list per round, and touches every process (``on_round``)
even when the network is quiescent around it. This module provides the
specialised counterparts: they hard-code Algorithm 1 over a
:class:`~repro.graph.csr.CSRGraph` and keep **all** protocol state in
flat arrays —

* ``core[i]`` — node ``i``'s current estimate (the object engine's
  ``KCoreNode.core``);
* ``est[e]`` — the estimate the owner of directed edge ``e`` last heard
  from ``targets[e]`` (the per-node ``est`` dicts, flattened onto the
  CSR edge array; the sentinel ``Δ + 1`` plays the role of +∞);
* ``incoming[e]`` + slot lists — the mailboxes: a message to edge slot
  ``e`` is one array write, no tuple, no per-message object;
* ``sup[v]`` — the support counter that lets deliveries skip
  ``computeIndex`` unless they can actually lower ``core[v]``;
* one shared scratch buffer for ``computeIndex``'s buckets.

Since PR 4 the per-round array work lives in the shared kernel layer
(:mod:`repro.sim.kernels`): the engines orchestrate rounds, truncation
and statistics, while a :class:`~repro.sim.kernels.base.KernelBackend`
executes the seeding / fold / frontier phases. ``backend="stdlib"``
(default) runs the canonical loops this module used to hold inline;
``backend="numpy"`` runs the vectorised kernels — bit-identical
results, chosen per run.

Both delivery disciplines of the object engine are covered:

* :class:`FlatOneToOneEngine` replays ``RoundEngine(mode="lockstep")``
  — the synchronous Section-4 model. Lockstep rounds are
  order-independent within a round, so the replay drains a per-round
  frontier instead of activating every process, quiescent regions cost
  nothing per round, and every phase is a batch — which is exactly what
  makes the numpy backend applicable here.
* :class:`FlatPeerSimEngine` replays ``RoundEngine(mode="peersim")`` —
  PeerSim's cycle semantics used by the Section-5 experiments: a fresh
  random activation order every round, and messages delivered
  *immediately*, so a node activated later in a round sees estimates
  sent earlier in the same round. The engine consumes the **identical
  RNG stream** (one ``rng.shuffle`` of the same-length pid list per
  executed round), so for any seed the coreness, round counts,
  execution time, per-round send counts, and per-node message counts
  are bit-identical to the object engine — t_avg/t_min/t_max spreads
  over seeds (Table 1) are exactly reproduced, just faster. Immediate
  delivery makes each activation observe the previous one's writes, so
  this engine is inherently sequential and **stdlib-only** (see the
  support matrix in :mod:`repro.sim.kernels`).

**Semantics.** Bit-exactness against the object engine, and across
backends, is asserted by the replay harness (``tests/replay.py``) in
every mode, on the family grids and on fuzzed graphs. For lockstep
this holds because message folding is a min and sends are buffered for
the next round, so replacing "activate every process in pid order" with
"drain the frontier" changes no observable state. For peersim the
activation order *is* observable, so the flat engine replays it
verbatim from the shared RNG stream.

**When is each selected?** ``run_one_to_one(engine="flat")`` routes
here, choosing the class by ``config.mode``. Observers are not
supported: per-round callbacks, :class:`~repro.sim.tracing.TraceRecorder`
traces, failure injection and asynchrony run on the object engines
(fidelity over throughput), which this replay matches round for round.
The one pure observer here is ``telemetry=``, which brackets rounds and
kernel phases in :mod:`repro.telemetry` spans — a write-only sink the
protocol never reads back, so it cannot perturb the replay.
"""

from __future__ import annotations

import random
import time as _time
from array import array
from typing import Iterator, Sequence

from repro.core.compute_index import compute_index
from repro.errors import ConvergenceError, SimulationError
from repro.graph.csr import CSRGraph
from repro.sim.kernels import KernelBackend, export_send_counts, resolve_backend
from repro.sim.metrics import SimulationStats
from repro.telemetry.spans import resolve_tracer
from repro.utils.rng import make_rng

__all__ = ["FlatOneToOneEngine", "FlatPeerSimEngine"]


class FlatOneToOneEngine:
    """Algorithm 1 over CSR arrays, lockstep delivery discipline.

    Parameters mirror the relevant subset of :class:`RoundEngine`:
    ``max_rounds`` bounds the run (exceeding it raises
    :class:`ConvergenceError` when ``strict``, else returns a partial
    result flagged ``converged=False``), ``optimize_sends`` enables the
    Section 3.1.2 message filter, and ``backend`` picks the kernel
    backend (name or instance; see :mod:`repro.sim.kernels`).

    After :meth:`run`, :attr:`core` holds the coreness per compact node
    index (``csr.ids[i]`` is the original id).
    """

    __slots__ = (
        "csr",
        "optimize_sends",
        "max_rounds",
        "strict",
        "backend",
        "core",
        "stats",
        "tracer",
    )

    def __init__(
        self,
        csr: CSRGraph,
        optimize_sends: bool = True,
        max_rounds: int = 1_000_000,
        strict: bool = True,
        backend: "str | KernelBackend" = "stdlib",
        telemetry: object = None,
    ) -> None:
        self.csr = csr
        self.optimize_sends = optimize_sends
        self.max_rounds = max_rounds
        self.strict = strict
        self.backend = resolve_backend(backend)
        self.core = self.backend.full(0)
        self.stats = SimulationStats()
        # telemetry is a pure observer: disabled, the tracer is the
        # shared no-op singleton, so the replay hot loop is untouched
        self.tracer = resolve_tracer(telemetry)

    # ------------------------------------------------------------------
    def coreness(self) -> dict[int, int]:
        """``{original node id: coreness}`` after :meth:`run`."""
        # tolist() gives builtin ints on either backend's container
        return dict(zip(self.csr.ids, self.core.tolist()))

    # ------------------------------------------------------------------
    def run(self) -> SimulationStats:
        """Run to quiescence (or ``max_rounds``); returns the stats."""
        for _ in self.rounds():
            pass
        return self.stats

    def rounds(self) -> Iterator["Sequence[int] | None"]:
        """Run round by round, yielding after each round's span closes.

        Each yield hands over the edge slots that round sent on (their
        estimates reach the slot owners next round): ``None`` after
        round 1, whose degree broadcast sends on every slot. The run
        ends after the first round that sends nothing. :meth:`run`
        drains this generator; the flat Pregel engine
        (:mod:`repro.pregel.kcore`) adds its per-superstep counts here.

        The replay skips work the object engine does without observable
        effect, using one extra array: ``sup[v]`` counts the slots in
        ``v``'s slice with ``est >= core[v]``. Since ``computeIndex``
        lowers ``core[v]`` iff fewer than ``core[v]`` neighbours have
        estimates ``>= core[v]`` (its suffix-count ``count[k] < k``
        test), a delivery needs a recompute only when it drops ``sup``
        below ``core`` — every other message is a single array write.
        After each recompute ``sup`` is re-read from the suffix-summed
        bucket counts, which restores the invariant ``sup >= core`` at
        every round boundary. Each round is three kernel calls: fold
        last round's slots (or seed the round-2 degree delivery), then
        recompute + emit over the frontier.
        """
        start = _time.perf_counter()
        kb = self.backend
        csr = self.csr
        stats = self.stats
        tracer = self.tracer
        n = csr.num_nodes
        offsets = kb.graph_array(csr.offsets)
        targets = kb.graph_array(csr.targets)
        mirror = kb.graph_array(csr.mirror())
        owner = kb.graph_array(csr.edge_owners())
        num_slots = len(csr.targets)
        optimize = self.optimize_sends

        # est[e] starts at the +∞ sentinel: strictly above any payload
        # (payloads are estimates, bounded by Δ), so the first message on
        # an edge always records, the send filter never suppresses on an
        # unheard-from neighbour, and computeIndex clamps it to k just as
        # it clamps the object engine's `core + 1` default.
        sentinel = csr.max_degree() + 1
        est = kb.full(num_slots, sentinel)
        incoming = kb.full(num_slots, 0)
        core = self.core = kb.full(n, 0)
        sup = kb.full(n, 0)
        sent = kb.full(n, 0)
        in_frontier = bytearray(n)
        scratch: list[int] = []

        # Round 1: every node initialises to its degree and broadcasts
        # it on every edge — 2m messages, one per slot, no buffering
        # needed because round 2 below reads the sender degrees straight
        # from the CSR offsets.
        rnd = 1
        sends = num_slots
        with tracer.span("round", round=1):
            degree = kb.degrees(offsets, n)
            core[:] = degree
            sent[:] = degree
        stats.sends_per_round.append(sends)
        if sends:
            stats.execution_time += 1
        yield None

        seeded = False
        slots = None
        while sends:
            if rnd >= self.max_rounds:
                stats.converged = False
                stats.rounds_executed = rnd
                export_send_counts(stats, sent, csr.ids)
                stats.wall_seconds = _time.perf_counter() - start
                if self.strict:
                    raise ConvergenceError(rnd)
                return
            rnd += 1
            with tracer.span("round", round=rnd) as round_span:
                if not seeded:
                    # Round 2: every slot carries its sender's degree.
                    seeded = True
                    with tracer.span("kernel.seed_estimates"):
                        frontier = kb.seed_estimates(
                            offsets, targets, owner, degree, est, sup,
                            in_frontier,
                        )
                else:
                    with tracer.span("kernel.fold_slots"):
                        frontier = kb.fold_slots(
                            slots, incoming, est, owner, core, sup,
                            in_frontier,
                        )
                with tracer.span("kernel.process_frontier"):
                    sends, slots = kb.process_frontier(
                        frontier, offsets, targets, mirror, est, core, sup,
                        incoming, sent, optimize, scratch, in_frontier,
                    )
                round_span.note(sends=int(sends))
            stats.sends_per_round.append(int(sends))
            if sends:
                stats.execution_time += 1
            yield slots

        stats.rounds_executed = rnd
        export_send_counts(stats, sent, csr.ids)
        stats.wall_seconds = _time.perf_counter() - start


class FlatPeerSimEngine:
    """Algorithm 1 over CSR arrays, PeerSim cycle semantics (Section 5).

    A bit-exact, RNG-identical replay of ``RoundEngine(mode="peersim")``
    driving :class:`~repro.core.one_to_one.KCoreNode` processes: each
    round shuffles the pid list with the shared RNG stream and activates
    nodes in that order, and a message reaches its destination's mailbox
    *immediately* — a node activated later in a round already sees
    estimates sent earlier in the same round. That immediacy makes each
    activation a tiny data-dependent step, so this engine keeps the
    canonical scalar loop and supports only the stdlib kernel backend
    (the config layer rejects ``backend="numpy"`` + peersim loudly).

    Parameters
    ----------
    csr:
        The graph.
    seed:
        Seed (or shared :class:`random.Random`) for the per-round
        activation order; pass the same value as the object engine's
        ``seed`` to reproduce a run exactly.
    activation_ids:
        Original node ids in the object engine's process-dict insertion
        order (``list(graph.nodes())``). ``rng.shuffle`` permutes
        *positions*, so replaying the stream bit-exactly requires
        starting from the same base sequence. Defaults to ``csr.ids``
        (ascending original ids) — correct whenever the object engine
        was built from a graph whose nodes iterate in ascending order.
    optimize_sends / max_rounds / strict:
        As in :class:`FlatOneToOneEngine`.
    """

    __slots__ = (
        "csr",
        "seed",
        "optimize_sends",
        "max_rounds",
        "strict",
        "core",
        "stats",
        "tracer",
        "_base_order",
    )

    def __init__(
        self,
        csr: CSRGraph,
        seed: int | random.Random | None = 0,
        optimize_sends: bool = True,
        max_rounds: int = 1_000_000,
        strict: bool = True,
        activation_ids: Sequence[int] | None = None,
        telemetry: object = None,
    ) -> None:
        self.csr = csr
        self.seed = seed
        self.optimize_sends = optimize_sends
        self.max_rounds = max_rounds
        self.strict = strict
        self.core: array = array("q")
        self.stats = SimulationStats()
        # a pure observer, as in the lockstep engine: the inherently
        # sequential per-activation loop is never bracketed — only the
        # round boundaries are, so tracing costs one span per round
        self.tracer = resolve_tracer(telemetry)
        if activation_ids is None:
            self._base_order = list(range(csr.num_nodes))
        else:
            index = csr.index
            self._base_order = [index(p) for p in activation_ids]
            if (
                len(self._base_order) != csr.num_nodes
                or len(set(self._base_order)) != csr.num_nodes
            ):
                raise SimulationError(
                    "activation_ids must enumerate every node exactly once"
                )

    # ------------------------------------------------------------------
    def coreness(self) -> dict[int, int]:
        """``{original node id: coreness}`` after :meth:`run`."""
        return dict(zip(self.csr.ids, self.core.tolist()))

    # ------------------------------------------------------------------
    def run(self) -> SimulationStats:
        """Run to quiescence (or ``max_rounds``); returns the stats.

        Mailboxes are per-node lists of edge slots (one entry per
        message, so the undelivered-message count the object engine uses
        for its quiescence check is ``sum(len(mail[v])))``, tracked
        incrementally). ``incoming[slot]`` always holds the latest (and,
        estimates being monotone decreasing, smallest) payload sent over
        that slot, so folding a mailbox is pure array reads. The same
        ``sup`` support-counter shortcut as the lockstep engine applies:
        within one activation the object engine folds the whole mailbox
        *then* recomputes once, so a recompute can be skipped whenever
        the folded batch provably leaves ``computeIndex`` at ``core[v]``
        (support still >= core) — the object engine's recompute returns
        ``core[v]`` unchanged and sends nothing in exactly those cases.
        """
        start = _time.perf_counter()
        csr = self.csr
        stats = self.stats
        tracer = self.tracer
        n = csr.num_nodes
        offsets = csr.offsets
        targets = csr.targets
        mirror = csr.mirror()
        num_slots = len(targets)
        optimize = self.optimize_sends
        rng = make_rng(self.seed)
        shuffle = rng.shuffle
        base = self._base_order

        sentinel = csr.max_degree() + 1
        est = array("q", [sentinel]) * num_slots
        incoming = array("q", [0]) * num_slots
        core = self.core = array("q", [0]) * n
        sup = array("q", [0]) * n
        sent = array("q", [0]) * n
        est_view = memoryview(est) if num_slots else est
        mail: list[list[int]] = [[] for _ in range(n)]
        scratch: list[int] = []
        _compute_index = compute_index

        # Round 1: on_init in shuffled order — every node broadcasts its
        # degree on every edge, delivered immediately. No activation
        # reads its mailbox during round 1 (on_init only sends), so the
        # order cannot influence state; the shuffle still runs to keep
        # the RNG stream aligned with the object engine.
        order = base[:]
        shuffle(order)
        rnd = 1
        sends = num_slots
        pending = num_slots
        with tracer.span("round", round=1):
            for v in range(n):
                lo = offsets[v]
                hi = offsets[v + 1]
                core[v] = sup[v] = sent[v] = hi - lo
                if hi > lo:
                    mail[v] = list(range(lo, hi))
            degree = array("q", core)
            for e in range(num_slots):
                incoming[e] = degree[targets[e]]
        stats.sends_per_round.append(sends)
        if sends:
            stats.execution_time += 1

        while sends or pending:
            if rnd >= self.max_rounds:
                stats.converged = False
                stats.rounds_executed = rnd
                export_send_counts(stats, sent, csr.ids)
                stats.wall_seconds = _time.perf_counter() - start
                if self.strict:
                    raise ConvergenceError(rnd)
                return stats
            rnd += 1
            sends = 0
            with tracer.span("round", round=rnd) as round_span:
                order = base[:]
                shuffle(order)
                for v in order:
                    box = mail[v]
                    if not box:
                        continue
                    pending -= len(box)
                    k = core[v]
                    s = sup[v]
                    for slot in box:
                        value = incoming[slot]
                        old = est[slot]
                        if value < old:
                            est[slot] = value
                            if old >= k and value < k:
                                s -= 1
                    box.clear()
                    sup[v] = s
                    if s < k:
                        lo = offsets[v]
                        hi = offsets[v + 1]
                        t = _compute_index(est_view[lo:hi], k, scratch)
                        sup[v] = scratch[t]
                        if t < k:
                            core[v] = t
                            count = 0
                            for e in range(lo, hi):
                                if optimize and t >= est[e]:
                                    continue
                                slot = mirror[e]
                                incoming[slot] = t
                                mail[targets[e]].append(slot)
                                count += 1
                            if count:
                                sent[v] += count
                                sends += count
                                pending += count
                round_span.note(sends=sends)
            stats.sends_per_round.append(sends)
            if sends:
                stats.execution_time += 1

        stats.rounds_executed = rnd
        export_send_counts(stats, sent, csr.ids)
        stats.wall_seconds = _time.perf_counter() - start
        return stats
