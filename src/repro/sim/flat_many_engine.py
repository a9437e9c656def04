"""Flat, array-based execution of the one-to-many protocol.

The object path runs Algorithms 3-5 as :class:`~repro.core.one_to_many.
KCoreHost` processes under the general :class:`~repro.sim.engine.
RoundEngine`: every estimate lives in a per-host ``dict``, every
adjacency visit chases a dict of tuples, every internal cascade step
pays set/dict bookkeeping, and every host-to-host message allocates a
``(sender, payload)`` tuple plus a list of pairs. This module is the
specialised counterpart, in the mould of
:mod:`repro.sim.flat_engine`: it hard-codes the host protocol over a
:class:`~repro.graph.sharded.ShardedCSR` and keeps all protocol state
in flat per-shard arrays —

* ``est[u]`` — one array per shard covering ``V(x) ∪ neighborV(x)`` in
  the shard's local index space (owned nodes first, then the external
  boundary — the paper deliberately stores both in one array, and here
  that array is literal);
* the internal cascade (``improveEstimate``, Algorithm 4) runs on the
  shard-local CSR with the support-counter shortcut of the flat
  one-to-one engines (``sup[u]`` tracks how many neighbours sit at or
  above ``est[u]``, so ``computeIndex`` only runs when a drop can
  actually lower the estimate);
* host-to-host mailboxes reuse the mailbox-slot scheme of the flat
  one-to-one engines, lifted from (node, node) edges to (host, host)
  channels: a transmission appends ``(ext-slot, value)`` pairs into the
  destination shard's slot/value ``array('q')`` buffers — folding a
  mailbox is pure array reads, and because estimates only decrease,
  sequential min-fold over the pairs reproduces the object engine's
  fold of every pending payload.

The host program itself — seeding, mailbox fold, cascade and the
broadcast / p2p routing with its Figure-5 accounting — is one
:class:`~repro.sim.host_step.HostStep` per shard, the same class the
multi-process engine runs inside its workers; its array work runs on a
:class:`~repro.sim.kernels.base.KernelBackend`. This engine only orders
host activations, delivers batches in-process and keeps statistics.
``backend="stdlib"`` (default) is the canonical worklist;
``backend="numpy"`` runs the cascade as vectorised Jacobi rounds of
the same monotone operator — legitimate because the fixpoint, the
changed-node set and the exact support counters are all
schedule-independent (see below), and those are the only cascade
outputs the protocol observes. Both modes and both communication
policies accept either backend.

**Semantics.** The engine is an exact replay of
``RoundEngine`` driving ``build_host_processes`` output, for both
delivery disciplines: ``mode="lockstep"`` (deterministic host order,
messages delivered next round — double-buffered mailboxes) and
``mode="peersim"`` (a fresh ``rng.shuffle`` of the host pid list every
round from the *identical RNG stream*, messages visible to hosts
activated later in the same round). Host pids are always
``0..num_hosts-1`` in both paths, so — unlike the one-to-one replay —
no activation-id translation is ever needed. The internal cascade may
visit nodes in a different order than the object worklist, which is
safe: ``improveEstimate`` converges to a unique fixpoint from any
schedule (the operator is monotone non-increasing), so the post-cascade
estimates *and* the changed-node set are schedule-independent — and
those are the only cascade outputs the protocol observes. Coreness,
round counts, per-round send counts, per-host message counts, and the
Figure-5 ``estimates_sent`` overhead (under ``broadcast`` and ``p2p``)
all match the object engine bit-for-bit per seed. The replay harness
(``tests/replay.py``) asserts it, and stdlib/numpy bit-identity, on the
12-family grid and on fuzzed graphs.

**When is it selected?** ``run_one_to_many(engine="flat")`` routes here
via the flat row of :mod:`repro.core.paths`. Observers are not
supported: per-round callbacks and
:class:`~repro.sim.tracing.TraceRecorder` traces (which read every
host's owned estimates) run on the object engine, which this replay
matches round for round. The one pure observer here is
``telemetry=``, which brackets rounds and per-shard kernel phases in
:mod:`repro.telemetry` spans — a write-only sink the protocol never
reads back.
"""

from __future__ import annotations

import random
import time as _time
from array import array

from repro.errors import ConfigurationError, ConvergenceError
from repro.graph.sharded import ShardedCSR
from repro.sim.host_step import HostStep
from repro.sim.kernels import KernelBackend, export_send_counts, resolve_backend
from repro.sim.metrics import SimulationStats
from repro.telemetry.spans import resolve_tracer
from repro.utils.rng import make_rng

__all__ = ["FlatOneToManyEngine"]


class FlatOneToManyEngine:
    """Algorithms 3-5 over :class:`ShardedCSR` arrays.

    Parameters
    ----------
    sharded:
        The partitioned graph.
    communication:
        ``"broadcast"`` (Algorithm 3) or ``"p2p"`` (Algorithm 5).
    mode:
        ``"peersim"`` (randomized activation, immediate delivery) or
        ``"lockstep"`` (pid order, next-round delivery) — the same two
        disciplines as :class:`~repro.sim.engine.RoundEngine`.
    seed:
        Seed (or shared :class:`random.Random`) for the peersim
        activation shuffle; pass the object engine's seed to reproduce
        a run exactly. Ignored under ``lockstep`` (which never draws).
    max_rounds / strict:
        As in :class:`~repro.sim.flat_engine.FlatOneToOneEngine`.
    backend:
        Kernel backend (name or instance; see
        :mod:`repro.sim.kernels`). Both activation modes and both
        communication policies support ``"stdlib"`` and ``"numpy"`` —
        the per-shard batches are vectorisable regardless of the host
        activation order, which stays in this engine.
    telemetry:
        ``True``/``False`` or a :class:`repro.telemetry.Tracer`; spans
        bracket each round and each per-shard kernel phase
        (``kernel.seed_shard`` / ``kernel.fold_mailbox`` /
        ``kernel.cascade`` / ``emit``). Pure observer.

    After :meth:`run`, :attr:`estimates_sent` holds the Figure-5
    overhead numerator per host and :meth:`coreness` the result.
    """

    __slots__ = (
        "sharded",
        "communication",
        "mode",
        "seed",
        "max_rounds",
        "strict",
        "backend",
        "stats",
        "estimates_sent",
        "tracer",
        "_est",
    )

    def __init__(
        self,
        sharded: ShardedCSR,
        communication: str = "broadcast",
        mode: str = "peersim",
        seed: int | random.Random | None = 0,
        max_rounds: int = 1_000_000,
        strict: bool = True,
        backend: "str | KernelBackend" = "stdlib",
        telemetry: object = None,
    ) -> None:
        if communication not in ("broadcast", "p2p"):
            raise ConfigurationError(
                f"unknown communication policy {communication!r}; "
                "options: ['broadcast', 'p2p']"
            )
        if mode not in ("peersim", "lockstep"):
            raise ConfigurationError(
                f"unknown engine mode {mode!r}; the flat engine replays "
                "'lockstep' or 'peersim' semantics"
            )
        self.sharded = sharded
        self.communication = communication
        self.mode = mode
        self.seed = seed
        self.max_rounds = max_rounds
        self.strict = strict
        self.backend = resolve_backend(backend)
        self.stats = SimulationStats()
        #: Figure-5 overhead numerator per host (filled by :meth:`run`).
        self.estimates_sent: array = array("q")
        # a pure observer: the no-op tracer leaves the replay loop
        # untouched (see flat_engine)
        self.tracer = resolve_tracer(telemetry)
        self._est: list = []

    # ------------------------------------------------------------------
    def coreness(self) -> dict[int, int]:
        """``{original node id: coreness}`` after :meth:`run`."""
        ids = self.sharded.csr.ids
        out: dict[int, int] = {}
        for shard, est in zip(self.sharded.shards, self._est):
            # one slice per shard; tolist() yields builtin ints on
            # either backend
            for g, k in zip(shard.owned_global, est[:shard.n_owned].tolist()):
                out[ids[g]] = k
        return out

    def estimates_sent_total(self) -> int:
        """Sum of the per-host Figure-5 overhead numerators."""
        return sum(self.estimates_sent)

    # ------------------------------------------------------------------
    def run(self) -> SimulationStats:
        """Run to quiescence (or ``max_rounds``); returns the stats."""
        # deferred: importing at module scope closes a cycle through
        # repro.sim.__init__ -> here -> core.one_to_many -> core.result
        from repro.core.one_to_many import INFINITY_INT

        start = _time.perf_counter()
        kb = self.backend
        stats = self.stats
        tracer = self.tracer
        sharded = self.sharded
        shards = sharded.shards
        num_hosts = sharded.num_hosts
        peersim = self.mode == "peersim"
        rng = make_rng(self.seed) if peersim else None

        # one HostStep per shard holds the protocol state and runs
        # Algorithms 3-5; this engine only orders activations and
        # delivers the batches in-process
        steps = [
            HostStep(
                kb, shard, num_hosts, self.communication, INFINITY_INT,
                tracer, {"host": x},
            )
            for x, shard in enumerate(shards)
        ]
        self._est = [step.est for step in steps]
        sent_msgs = array("q", [0]) * num_hosts

        # Mailboxes: parallel (ext-slot, value) array('q') buffers per
        # destination host, plus an engine-message counter (the object
        # engine's quiescence check and on_messages gating count
        # *messages*, one per transmission, possibly carrying zero
        # relevant pairs).
        # peersim delivers into the live buffer; lockstep into the next
        # buffer, swapped at round start (RoundEngine's double buffer).
        mb_slots = [array("q") for _ in range(num_hosts)]
        mb_vals = [array("q") for _ in range(num_hosts)]
        mb_msgs = array("q", [0]) * num_hosts
        if peersim:
            in_slots, in_vals, in_msgs = mb_slots, mb_vals, mb_msgs
        else:
            in_slots = [array("q") for _ in range(num_hosts)]
            in_vals = [array("q") for _ in range(num_hosts)]
            in_msgs = array("q", [0]) * num_hosts
        pending = 0
        sends = 0

        # -- transmit: the step appends straight into the live inboxes
        def emit(x: int, updates: list[int]) -> None:
            nonlocal pending, sends
            with tracer.span("emit", host=x):
                dests = steps[x].emit(updates, in_slots, in_vals)
            for y in dests:
                in_msgs[y] += 1
            count = len(dests)
            sent_msgs[x] += count
            pending += count
            sends += count

        # -- round 1: Algorithm 3 initialisation, full send
        def init(x: int) -> None:
            emit(x, steps[x].init())

        # -- later rounds: fold the mailbox, transmit the changes
        def activate(x: int) -> None:
            nonlocal pending
            msgs = mb_msgs[x]
            if not msgs:
                return
            pending -= msgs
            mb_msgs[x] = 0
            slots = mb_slots[x]
            vals = mb_vals[x]
            updates = steps[x].fold(slots, vals)
            del slots[:]
            del vals[:]
            if updates:
                emit(x, updates)

        # Round 1 always runs. Under peersim its shuffle keeps the RNG
        # stream aligned with the object engine even though init never
        # reads a mailbox.
        base = list(range(num_hosts))
        order = base
        rnd = 0
        while rnd == 0 or sends or pending:
            if rnd >= max(1, self.max_rounds):
                stats.converged = False
                stats.rounds_executed = rnd
                self._finish(steps, sent_msgs)
                stats.wall_seconds = _time.perf_counter() - start
                if self.strict:
                    raise ConvergenceError(rnd)
                return stats
            rnd += 1
            sends = 0
            with tracer.span("round", round=rnd) as round_span:
                if peersim:
                    order = base[:]
                    rng.shuffle(order)
                else:
                    # flip buffers: last round's sends become this
                    # round's mail (the previous live buffers were
                    # fully drained; both are empty before round 1)
                    mb_slots, in_slots = in_slots, mb_slots
                    mb_vals, in_vals = in_vals, mb_vals
                    mb_msgs, in_msgs = in_msgs, mb_msgs
                act = init if rnd == 1 else activate
                for x in order:
                    act(x)
                round_span.note(sends=sends)
            stats.sends_per_round.append(sends)
            if sends:
                stats.execution_time += 1

        stats.rounds_executed = rnd
        self._finish(steps, sent_msgs)
        stats.wall_seconds = _time.perf_counter() - start
        return stats

    def _finish(self, steps: "list[HostStep]", sent_msgs: array) -> None:
        """Export per-host message counts and Figure-5 counters."""
        export_send_counts(self.stats, sent_msgs)
        self.estimates_sent = array("q", [step.estimates_sent for step in steps])
