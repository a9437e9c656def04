"""Multi-process execution of the one-to-many protocol.

Every engine before this one simulates the paper's hosts inside a
single Python process. This module is the first step from "fast
simulation" to "actually distributed": it spawns **one OS process per
:class:`~repro.graph.sharded.HostShard`**, each owning its shard's
kernel state (estimate table, support counters, cascade worklists — on
either :mod:`repro.sim.kernels` backend), with host-to-host estimate
batches carried over real ``multiprocessing`` channels and a
coordinator (the parent process) driving lockstep barriers and the
global termination check.

**Topology.** Per worker, two channels:

* a control :func:`multiprocessing.Pipe` to the coordinator — round
  commands down, per-round activity reports up (the same
  ACTIVE/INACTIVE reporting idea as the centralized master-slave
  mechanism of :mod:`repro.core.termination`, here carrying exact send
  counts so the coordinator replays the flat engine's quiescence test
  ``sends or pending`` instead of a quiet-window heuristic);
* an inbox :class:`multiprocessing.Queue` (multi-producer safe) into
  which *other workers* put estimate batches directly — host-to-host
  payloads never pass through the coordinator.

A batch is pickled **once, by the sender**, to a ``bytes`` payload
``(deliver_round, sender, slots, vals)``; the queue then only wraps
bytes, so the measured per-round pipe traffic
(:attr:`MultiProcessOneToManyEngine.pipe_bytes_per_round`) is the real
serialized volume and nothing is serialized twice. Batches are tagged
with the round that must fold them: queues interleave producers
arbitrarily, so a worker pulling its round-``r`` mail may receive a
fast neighbour's round-``r+1`` batch early and holds it back until the
coordinator opens that round.

**Transports.** The queue path above is the default
(``transport="queue"``). ``transport="shm"`` keeps the same topology
and protocol but moves the estimate hot path into per-worker
double-buffered mailbox rings in ``multiprocessing.shared_memory``
segments (:mod:`repro.sim.shm_transport`): senders write fixed-width
``(round, dest_slot, estimate)`` records directly into the destination
worker's inbound segment and the lockstep barrier is the buffer flip —
zero pickling, no feeder threads, no blocking receives (by the time a
round is dispatched, all of its ring writes have completed). Rings are
sized from the partition's cut structure, an exact per-round upper
bound, so every batch fits its ring (a batch that did not would be a
bug, and the write raises). The receive path drains the ring first,
then the queue, under the same round-tag + per-sender dedupe — so ring
mail and recovery re-sends compose, and ``pipe_bytes_total`` stays
zero. Recovery is unchanged in shape: segments are
coordinator-owned, so they survive a worker's death and the
replacement finds the stuck round's rings intact; resend buffers hold
raw ``(round, slots, vals)`` tuples that survivors pickle on demand
over the queue lane (ring tags from replayed rounds are stale by
construction, so replays are fed by the queue exactly as before).
Checkpoint snapshots still drain expected mail — from the ring and the
queue both — so ``CheckpointWriter`` and ``resume_from_checkpoint``
work identically on either transport.

**Semantics.** Each worker runs its shard through the same
:class:`~repro.sim.host_step.HostStep` the in-process engine uses, so
the engine is an exact replay of
:class:`~repro.sim.flat_many_engine.FlatOneToManyEngine` under
``mode="lockstep"`` — same coreness, executed rounds, per-round send
counts, per-host message counts and Figure-5 ``estimates_sent``, for
both communication policies and the ``p2p_filter`` extension, on either
kernel backend (each worker constructs its own backend instance, so
numpy state never crosses a pipe). Two properties make the parallel
replay exact:

* lockstep double-buffers mailboxes (messages sent in round ``r`` are
  folded in round ``r+1``), so within a round no host observes another
  host's writes — host activations are embarrassingly parallel;
* the flat engine fills a host's mailbox in activation order (pid
  ``0..H-1``); each worker restores exactly that order by sorting the
  round's batches by sender pid before folding (at most one batch per
  sender per round under every policy, so the sort is a total order).

``mode="peersim"`` is rejected loudly: PeerSim cycle semantics deliver
messages *immediately* in a randomized per-host activation order, so
each activation observes the previous one's writes — an inherently
sequential schedule that one-process-per-host cannot replay in
parallel. Use the in-process :class:`FlatOneToManyEngine` for peersim
runs.

**Fault tolerance.** The protocol is self-stabilizing per host —
estimates only decrease, and any host can recompute its state from its
shard plus its neighbours' estimate stream — which makes recovery a
*replay* problem rather than a consensus problem. Three mechanisms
build on that (all off unless configured; see
``docs/architecture.md``, "Failure model and recovery"):

* **checkpointing** (:class:`~repro.sim.checkpoint.CheckpointPolicy`):
  at the barrier after every k-th round each worker snapshots its
  kernel state and round-tagged mailbox backlog (the expected next
  round's mail is drained into the snapshot first, so nothing lives
  only inside a queue) and the coordinator commits an atomic,
  checksummed manifest — either a complete checkpoint exists or none
  does;
* **single-worker recovery**: when the failure detector spots a lost
  worker (closed control pipe, nonzero exitcode, or a reply timeout —
  dead and wedged look the same from the barrier), the coordinator
  re-spawns it from the last checkpoint (round 0 = a fresh shard when
  none exists yet), has the survivors re-put the missed estimate
  batches from their per-recipient **resend buffers** (bounded: pruned
  at every checkpoint), lets the replacement deterministically replay
  the missed rounds with transmission suppressed, then re-executes the
  stuck round for real and resumes the lockstep barrier. Receivers
  deduplicate by ``(round, sender)`` — at most one batch per sender
  per round under every policy — so replayed re-sends are harmless.
  The recovered run is bit-identical to a fault-free one;
* **whole-fleet resume**
  (:func:`repro.core.one_to_many.resume_from_checkpoint`): after a
  coordinator death, a new coordinator restores every worker from the
  checkpoint directory and continues the loop — the snapshot's drained
  mailbox backlog is exactly the in-flight state a restart needs.

Failures are injected deterministically through
:class:`~repro.sim.faults.FaultPlan` so every recovery path above runs
in CI. Out of scope (detected, reported loudly, not recovered
in-flight): two workers lost at the *same* barrier, a loss during the
checkpoint or result-gathering barriers, and a worker that dies midway
through a queue ``put`` holding the queue lock — use
``resume_from_checkpoint`` for those.

**When is it selected?** ``run_one_to_many(engine="mp")`` routes here
via the mp row of :mod:`repro.core.paths`; ``decompose("one-to-many-mp")``
and the CLI's ``--engine mp --workers N`` are the one-call forms. For
the graphs this repository benchmarks, the in-process flat engine is
faster — IPC serialization costs real time (see ``BENCH_mp.json``) —
so the mp engine is the fidelity/deployment path, not the throughput
path; the config layer warns when a run is too small to amortize the
process fan-out.
"""

from __future__ import annotations

import multiprocessing as mp
import os as _os
import pickle
import time as _time
import traceback
from array import array
from datetime import datetime
from queue import Empty

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    FleetTimeoutError,
)
from repro.graph.sharded import HostShard, ShardedCSR
from repro.sim.checkpoint import CheckpointPolicy, CheckpointWriter
from repro.sim.faults import KILL_EXIT_CODE, FaultPlan, WorkerFaults
from repro.sim.host_step import HostStep
from repro.sim.kernels import export_send_counts, resolve_backend
from repro.sim.metrics import SimulationStats
from repro.sim.shm_transport import (
    attach_mailbox,
    build_shm_layout,
    create_segments,
)
from repro.sim.tracing import diff_round, record_shard_round, reference_slice
from repro.telemetry.merge import merge_worker_buffers
from repro.telemetry.spans import NULL_TRACER, Tracer, resolve_tracer

__all__ = [
    "MultiProcessOneToManyEngine",
    "START_METHODS",
    "TRANSPORTS",
    "default_reply_timeout",
]

#: Start methods the engine accepts; ``"spawn"`` is the default — it is
#: the only method available on every platform and the one a real
#: deployment (fresh interpreter per worker) resembles. ``"fork"`` is
#: much cheaper to start on POSIX and produces identical results (the
#: protocol is deterministic), so test grids use it.
START_METHODS = ("spawn", "fork", "forkserver")

#: Estimate transports: pickled batches over per-worker queues
#: (default) or zero-copy mailbox rings in shared memory (see the
#: module docstring and :mod:`repro.sim.shm_transport`).
TRANSPORTS = ("queue", "shm")

# control-plane opcodes (coordinator -> worker)
_INIT = 0  # run round 1 (Algorithm 3 on_init), emit initial batches
_STEP = 1  # run one activation round: fold expected mail, cascade, emit
_FINISH = 2  # report final per-shard results
_EXIT = 3  # leave the command loop
_CHECKPOINT = 4  # drain next-round mail into the backlog, snapshot state
_RESEND = 5  # re-put buffered payloads for one recipient (recovery)
_REPLAY = 6  # deterministically re-execute missed rounds (recovery)
_TELEMETRY = 7  # ship the worker-local span buffer (gather time)


def default_reply_timeout(num_nodes: int, workers: int) -> float:
    """Round-aware failure-detector default, in seconds.

    A barrier reply is late only relative to how much per-round work a
    worker legitimately has, which scales with its owned-node count —
    a flat constant either hangs small runs for minutes or kills big
    ones mid-fold. 60 s of floor (spawn + import on a loaded CI box)
    plus 2 ms per owned node per worker: ~70 s at 20k/4 workers, ~560 s
    at 1M/4.
    """
    nodes_per_worker = num_nodes / max(1, workers)
    return 60.0 + 0.002 * nodes_per_worker


class _WorkerLost(Exception):
    """Internal: the failure detector flagged one worker at a barrier."""

    def __init__(self, worker: int, reason: str, wedged: bool) -> None:
        super().__init__(reason)
        self.worker = worker
        self.reason = reason
        #: True when the process was still alive (stalled / lost a
        #: message) — it missed the reply timeout rather than dying.
        self.wedged = wedged


class _ShardWorker:
    """One shard's :class:`~repro.sim.host_step.HostStep` plus transport.

    The step runs the host protocol — the same code the in-process
    :class:`FlatOneToManyEngine` runs — and fills fresh per-destination
    batches; this class only ships them (queue or shm ring), receives
    the round's mail (round-tagged, held back, deduplicated), and keeps
    the resend buffers and snapshots recovery needs.
    """

    def __init__(
        self,
        host: int,
        shard: HostShard,
        num_hosts: int,
        communication: str,
        p2p_filter: bool,
        backend: str,
        infinity: int,
        inboxes,
        resilient: bool = False,
        faults: "WorkerFaults | None" = None,
        tracer=NULL_TRACER,
    ) -> None:
        self.step = HostStep(
            resolve_backend(backend), shard, num_hosts, communication,
            p2p_filter, infinity, tracer,
        )
        self.host = host
        self.num_hosts = num_hosts
        self.inboxes = inboxes
        self.resilient = resilient
        self.faults = faults
        #: batches that arrived early, keyed by their delivery round
        self.held: dict[int, list] = {}
        #: rounds whose mail is already folded — late duplicates of a
        #: folded round (stale queue content + recovery re-sends) are
        #: discarded on receipt
        self.folded_through = 0
        #: per-recipient resend buffer, kept only when ``resilient`` and
        #: pruned at every checkpoint — the replay window a recovery can
        #: need. Queue transport buffers the pickled payloads
        #: (``{dest: [(deliver_round, payload), ...]}``); shm transport
        #: buffers raw ``(deliver_round, slots, vals)`` tuples that the
        #: ``_RESEND`` handler pickles on demand (re-sends always travel
        #: the queue lane — ring buffers from replayed rounds are long
        #: overwritten or stale-tagged)
        self.resend: dict[int, list] = {}
        #: shm transport only: the worker's
        #: :class:`~repro.sim.shm_transport.ShmMailbox` (attached by
        #: ``_worker_main`` once the backend is resolved). ``None``
        #: selects the queue transport. A process-local OS handle —
        #: never pickled, never part of a snapshot.
        self.mailbox = None
        #: worker-local span buffer (pure observer; NULL_TRACER when
        #: telemetry is off, so the hot path pays one attribute lookup)
        self.tracer = tracer
        #: TraceRecorder feeding state: reference slices over the owned
        #: nodes and the previous round's values (None = not recording)
        self.record_refs: "list[list[int] | None] | None" = None
        self.record_prev: "list[int] | None" = None

    def enable_recording(
        self, refs: "list[list[int] | None]", restored: bool
    ) -> None:
        """Arm the per-round array diff shipped with the round reports.

        ``prev`` after any recorded round equals the owned estimate
        slice exactly (the diff copies every changed value), so a
        restored worker reseeds it from the adopted snapshot's
        estimates; a fresh worker seeds ``-1`` so round 1 counts every
        node (the observer path's first-observation rule).
        """
        self.record_refs = refs
        n_owned = self.step.shard.n_owned
        if restored:
            est = self.step.est
            self.record_prev = [int(est[u]) for u in range(n_owned)]
        else:
            self.record_prev = [-1] * n_owned

    def record_diff(self) -> "tuple | None":
        """One round's ``(changed, errors)`` aggregate, or ``None``."""
        if self.record_refs is None:
            return None
        return diff_round(self.step.est, self.record_prev, self.record_refs)

    def resync_record_prev(self) -> None:
        """Re-align ``prev`` with the estimates after a recovery replay
        (equivalent to having diffed every replayed round)."""
        if self.record_prev is not None:
            est = self.step.est
            self.record_prev = [int(est[u]) for u in range(len(self.record_prev))]

    def _inbox_get(self, inbox) -> bytes:
        """Receive one payload from this worker's inbox.

        With recovery enabled the wait is a non-blocking poll loop
        instead of a blocking ``get()``, which would hold the queue's
        reader lock for its whole wait. A ``terminate()`` that lands
        inside a probe still leaves the lock held; the coordinator
        frees it before the replacement, which reuses the queue,
        starts (``_recover_worker``). The residual window is a
        terminate during a payload read, which cannot happen while a
        wedged worker waits on mail that never comes.
        """
        if not self.resilient:
            return inbox.get()
        while True:
            try:
                return inbox.get_nowait()
            except Empty:
                _time.sleep(0.001)

    # ------------------------------------------------------------------
    # state snapshot / restore (checkpointing + worker recovery)
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Barrier-point state: tables, Figure-5 counter, mail backlog.

        Called only between rounds, where the cascade scratch
        (``queued`` / ``changed_*``) is empty by invariant and the
        resend buffers have just been pruned — so estimate/support
        tables, the overhead counter, the fold watermark and the held
        mailbox backlog are the *whole* state.
        """
        step = self.step
        return pickle.dumps(
            (
                self.folded_through,
                step.est,
                step.sup,
                step.estimates_sent,
                self.held,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def restore(self, blob: bytes) -> None:
        """Adopt a :meth:`snapshot` (same backend, per the manifest)."""
        step = self.step
        (
            self.folded_through,
            step.est,
            step.sup,
            step.estimates_sent,
            self.held,
        ) = pickle.loads(blob)

    # -- ship one activation's updates: the step routes them into
    # fresh per-destination batches, this method moves the batches.
    # Returns (dests, pickled bytes, ring bytes) for the round report.
    # ``transport=False`` (recovery replay) keeps every counter and the
    # resend buffer exact but skips the physical queue puts / ring
    # writes — the live fleet already received these batches.
    def _ship(
        self, deliver_round: int, updates: list[int], transport: bool = True
    ) -> tuple:
        num_hosts = self.num_hosts
        out_slots = [array("q") for _ in range(num_hosts)]
        out_vals = [array("q") for _ in range(num_hosts)]
        dests = self.step.emit(updates, out_slots, out_vals)
        if not dests:
            return (), 0, 0
        x = self.host
        faults = self.faults
        mailbox = self.mailbox
        nbytes = 0
        span_name = "emit.serialize" if mailbox is None else "emit.shm_write"
        with self.tracer.span(span_name, dests=len(dests)) as span:
            for y in dests:
                # on the wire a batch is a list of ints, and a broadcast
                # to a host with no border pair an empty message, ``()``
                slots = out_slots[y].tolist() or ()
                vals = out_vals[y].tolist() or ()
                # the emitting round is deliver_round - 1 (lockstep)
                send = transport and (
                    faults is None
                    or faults.on_transport(deliver_round - 1, y) != "drop"
                )
                if mailbox is None:
                    payload = pickle.dumps(
                        (deliver_round, x, slots, vals),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                    nbytes += len(payload)
                    if self.resilient:
                        self.resend.setdefault(y, []).append(
                            (deliver_round, payload)
                        )
                    if send:
                        self.inboxes[y].put(payload)
                else:
                    if self.resilient:
                        self.resend.setdefault(y, []).append(
                            (deliver_round, slots, vals)
                        )
                    if send:
                        nbytes += mailbox.write(y, deliver_round, slots, vals)
            span.note(nbytes=nbytes)
        if mailbox is None:
            return dests, nbytes, 0
        return dests, 0, nbytes

    def prune_resend(self, through_round: int) -> None:
        """Drop buffered payloads a post-checkpoint replay cannot need."""
        for y, buffered in list(self.resend.items()):
            kept = [item for item in buffered if item[0] > through_round]
            if kept:
                self.resend[y] = kept
            else:
                del self.resend[y]

    # -- Algorithm 3 initialisation: degrees in, cascade, full send
    def on_init(self, deliver_round: int, transport: bool = True) -> tuple:
        return self._ship(deliver_round, self.step.init(), transport)

    # -- one activation: fold the round's mail, cascade, transmit
    def activate(
        self, deliver_round: int, batches: list, transport: bool = True
    ) -> tuple:
        if not batches:
            return (), 0, 0
        # restore the flat engine's mailbox order: senders append in
        # activation (pid) order, one batch per sender per round
        batches.sort(key=lambda b: b[1])
        slots, vals = array("q"), array("q")
        for _rnd, _sender, bslots, bvals in batches:
            if bslots:  # a list of ints, or ``()`` when empty
                slots.fromlist(bslots)
                vals.fromlist(bvals)
        updates = self.step.fold(slots, vals, batches=len(batches))
        return self._ship(deliver_round, updates, transport)

    # ------------------------------------------------------------------
    # receive path: round-tagged, held-back, deduplicated
    # ------------------------------------------------------------------
    def pull(self, inbox, rnd: int, expect: int, hold: bool = False) -> list:
        """Collect the ``expect`` distinct round-``rnd`` batches.

        Early mail for later rounds is held back; mail for rounds
        already folded (stale queue content from before a worker died,
        or a recovery re-send the backlog already covered) is
        discarded; and within a round at most one batch per sender is
        kept — the dedup that makes recovery re-sends idempotent.

        On the shm transport the ring is drained first — its tags are
        exact (parity double-buffering means a region's tag equals
        ``rnd`` iff it carries this round's batch), so ring reads never
        block — and the queue loop then covers only recovery re-sends.
        The per-sender dedupe spans both sources, so a re-send
        duplicating a ring batch (or a checkpoint backlog) is
        discarded.

        By default the batches are returned for folding and ``rnd``
        becomes the fold watermark. ``hold=True`` (the checkpoint
        barrier) leaves them in the held backlog instead, so the
        snapshot carries every in-flight batch — afterwards the queues
        and rings are empty and the snapshot is self-contained.
        """
        held = self.held
        bucket = held.setdefault(rnd, [])
        mailbox = self.mailbox
        if mailbox is not None and len(bucket) < expect:
            with self.tracer.span("mail.shm_read", round=rnd) as span:
                found = 0
                for sender, slots, vals in mailbox.read(rnd):
                    if any(b[1] == sender for b in bucket):
                        continue
                    bucket.append((rnd, sender, slots, vals))
                    found += 1
                span.note(batches=found)
        while len(bucket) < expect:
            msg = pickle.loads(self._inbox_get(inbox))
            r = msg[0]
            if r <= self.folded_through:
                continue  # duplicate of mail this state already folded
            dest = bucket if r == rnd else held.setdefault(r, [])
            sender = msg[1]
            if any(b[1] == sender for b in dest):
                continue  # duplicate within the round (recovery re-send)
            dest.append(msg)
        if not hold or not bucket:
            del held[rnd]
        if not hold:
            self.folded_through = rnd
        return bucket

    def result(self) -> tuple:
        """Final per-shard payload: owned estimates + Figure-5 count."""
        step = self.step
        est = step.est
        owned = [int(est[u]) for u in range(step.shard.n_owned)]
        return owned, step.estimates_sent


def _die(inboxes, host: int) -> None:
    """Serve a scripted kill: flush our outbound queues, then exit hard.

    ``Queue.put`` only buffers; a background feeder thread does the
    actual pipe write. ``os._exit`` straight after a put could therefore
    kill the feeder mid-write — losing batches the protocol already
    counted as sent and, worse, poisoning the destination queue's
    writer lock for every other sender. Closing + joining each queue
    handle flushes and retires this process's feeders first, which
    models the intended failure ("the host sent its messages, then
    crashed") instead of a corrupted-transport one, which is documented
    as out of scope.
    """
    for y, q in enumerate(inboxes):
        if y == host:
            continue
        try:
            q.close()
            q.join_thread()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
    _os._exit(KILL_EXIT_CODE)


def _worker_main(
    host: int,
    num_hosts: int,
    communication: str,
    p2p_filter: bool,
    backend: str,
    infinity: int,
    conn,
    inbox,
    inboxes,
    resilient: bool,
    telemetry: bool = False,
    shm_info: "tuple | None" = None,
) -> None:
    """Worker process entry point (module-level: spawn-picklable).

    The spawn arguments are small handles only. The worker's first act
    is a ``("ready",)`` reply; the coordinator then sends the boot
    message ``(shard_blob, faults_blob, restore_blob, record_blob)``
    over the control pipe. ``shard_blob`` is the coordinator's pickled
    :class:`HostShard` — shipped as bytes so the one serialization pass
    also yields the ``shard_payload_bytes`` metric. ``restore_blob``
    (respawned replacements and whole-fleet resumes) is a prior
    :meth:`_ShardWorker.snapshot` to adopt before the command loop;
    ``faults_blob`` is this worker's slice of a
    :class:`~repro.sim.faults.FaultPlan`.

    ``shm_info`` (shm transport only) is ``(segment names, ShmLayout)``
    — the worker attaches every fleet segment by name and builds its
    :class:`~repro.sim.shm_transport.ShmMailbox` over the resolved
    kernel backend. Attached segments are deliberately never closed in
    the worker (live buffer exports forbid it; process exit reclaims
    the mapping) and never unlinked (the coordinator owns the
    lifecycle — that ownership is what lets a respawned replacement
    find the stuck round's rings intact).

    ``telemetry`` arms a worker-local :class:`~repro.telemetry.Tracer`
    (lane ``worker-<host>``) whose buffer ships up the control pipe on
    ``_TELEMETRY`` at gather time; ``record_blob`` is the pickled
    reference slices arming the per-round
    :class:`~repro.sim.tracing.TraceRecorder` diff. Both are pure
    observers — neither touches protocol state or message flow.

    Runs the command loop: fold/cascade/emit on ``_STEP``, holding back
    early-arriving batches tagged for a later round. Any exception is
    reported up the control pipe as ``("error", traceback)`` so the
    coordinator can fail loudly instead of hanging.
    """
    mailbox = None
    try:
        conn.send(("ready",))
        shard_blob, faults_blob, restore_blob, record_blob = conn.recv()
        faults = pickle.loads(faults_blob) if faults_blob else None
        tracer = Tracer(lane=f"worker-{host}") if telemetry else NULL_TRACER
        worker = _ShardWorker(
            host, pickle.loads(shard_blob), num_hosts, communication,
            p2p_filter, backend, infinity, inboxes,
            resilient=resilient, faults=faults, tracer=tracer,
        )
        if shm_info is not None:
            names, layout = shm_info
            mailbox = attach_mailbox(worker.step.kb, layout, names, host)
            worker.mailbox = mailbox
        if restore_blob is not None:
            worker.restore(restore_blob)
        if record_blob is not None:
            worker.enable_recording(
                pickle.loads(record_blob), restored=restore_blob is not None
            )
        while True:
            cmd = conn.recv()
            op = cmd[0]
            if op == _INIT or op == _STEP:
                rnd = 1 if op == _INIT else cmd[1]
                if faults and faults.kill_now(rnd, "start"):
                    _die(inboxes, host)
                with tracer.span("round", round=rnd) as round_span:
                    if op == _INIT:
                        report = worker.on_init(cmd[1])
                    else:
                        expect = cmd[2]
                        with tracer.span("mail.pull", round=rnd, expect=expect):
                            batches = worker.pull(inbox, rnd, expect)
                        report = worker.activate(rnd + 1, batches)
                    round_span.note(sends=len(report[0]))
                if faults and faults.kill_now(rnd, "after_emit"):
                    _die(inboxes, host)
                if faults:
                    faults.stall_before_report(rnd)
                conn.send(("done",) + report + (worker.record_diff(),))
            elif op == _CHECKPOINT:
                rnd, expect = cmd[1], cmd[2]
                with tracer.span("checkpoint.snapshot", round=rnd):
                    worker.pull(inbox, rnd + 1, expect, hold=True)
                    worker.prune_resend(rnd)
                    blob = worker.snapshot()
                conn.send(("ckpt", blob))
            elif op == _RESEND:
                dest, from_round = cmd[1], cmd[2]
                count = 0
                nbytes = 0
                with tracer.span("recovery.resend", dest=dest):
                    for item in worker.resend.get(dest, ()):
                        if item[0] > from_round:
                            if worker.mailbox is None:
                                payload = item[1]
                            else:
                                # shm buffers raw (round, slots, vals);
                                # re-sends travel the queue lane, so
                                # pickle into the wire payload now
                                payload = pickle.dumps(
                                    (item[0], host, item[1], item[2]),
                                    protocol=pickle.HIGHEST_PROTOCOL,
                                )
                            inboxes[dest].put(payload)
                            count += 1
                            nbytes += len(payload)
                conn.send(("resent", count, nbytes))
            elif op == _REPLAY:
                # deterministic catch-up of a respawned replacement:
                # re-execute the missed rounds with transmission
                # suppressed (the live fleet already has these batches;
                # emitting only rebuilds counters + the resend buffer)
                with tracer.span("recovery.replay", rounds=len(cmd[1])):
                    for rnd, expect in cmd[1]:
                        if rnd == 1:
                            worker.on_init(2, transport=False)
                            worker.folded_through = max(
                                worker.folded_through, 1
                            )
                        else:
                            batches = worker.pull(inbox, rnd, expect)
                            worker.activate(rnd + 1, batches, transport=False)
                    worker.resync_record_prev()
                conn.send(("replayed",))
            elif op == _TELEMETRY:
                conn.send(("telemetry", tracer.events()))
            elif op == _FINISH:
                conn.send(("result",) + worker.result())
            elif op == _EXIT:
                break
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown opcode {op!r}")
    except (EOFError, KeyboardInterrupt):  # coordinator went away
        pass
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        # release the shm views before interpreter teardown — __del__
        # order would otherwise close mappings under live exports
        if mailbox is not None:
            mailbox.detach()


class MultiProcessOneToManyEngine:
    """Algorithms 3-5 with one OS process per :class:`HostShard`.

    Parameters
    ----------
    sharded:
        The partitioned graph; needs ``num_hosts >= 2`` (a single-host
        "distribution" has nobody to message — use the in-process
        engines).
    communication:
        ``"broadcast"`` (Algorithm 3) or ``"p2p"`` (Algorithm 5).
    mode:
        Only ``"lockstep"`` — the barrier-synchronous discipline a
        process-per-host deployment can execute in parallel (see the
        module docstring for why peersim cannot be).
    p2p_filter / max_rounds / strict / backend:
        As in :class:`~repro.sim.flat_many_engine.FlatOneToManyEngine`;
        ``backend`` is resolved *by name inside each worker*, so numpy
        arrays never cross a pipe.
    start_method:
        ``multiprocessing`` start method (default ``"spawn"``).
    transport:
        ``"queue"`` (default; pickled batches over per-worker queues)
        or ``"shm"`` (zero-copy mailbox rings in shared memory — see
        the module docstring and :mod:`repro.sim.shm_transport`).
        Replay is bit-identical on either.
    reply_timeout:
        Seconds the coordinator waits for any single worker round
        report before the failure detector fires. ``None`` derives a
        round-aware default from the per-worker load
        (:func:`default_reply_timeout`); raise it
        (``OneToManyConfig.mp_reply_timeout``) when a single round's
        fold/cascade legitimately takes longer.
    checkpoint:
        A :class:`~repro.sim.checkpoint.CheckpointPolicy`, or ``None``
        (no snapshots). Enables recovery.
    fault_plan:
        A :class:`~repro.sim.faults.FaultPlan` of scripted failures for
        tests/benchmarks, or ``None``. Enables recovery.
    recover:
        Force the recovery machinery (resend buffers, respawn + replay)
        on or off; ``None`` (default) enables it exactly when
        ``checkpoint`` or ``fault_plan`` is set. With recovery off, a
        lost worker aborts the run loudly (fleet reaped, queues
        drained).
    telemetry:
        ``True``/``False`` or a :class:`repro.telemetry.Tracer`. When
        enabled, the coordinator traces spawn / round / per-worker
        barrier waits / checkpoint commits / recoveries / gather in its
        own lane, each worker runs a local ``worker-<host>`` tracer
        (round, queue wait, fold, cascade, serialization, snapshot,
        replay spans), and the worker buffers ship up the control pipes
        at gather time into one fleet timeline. A pure observer: the
        protocol messages, their ordering and every counter are
        bit-identical with tracing on or off.
    recorders:
        :class:`~repro.sim.tracing.TraceRecorder` instances. Workers
        diff their owned estimate slice per round and ship
        ``(changed, errors)`` with the round report; the coordinator
        sums the shard aggregates (addition is associative, so sharding
        does not change the totals) and records one snapshot per
        executed round — identical output to the object engine's
        observer path.

    After :meth:`run`: :meth:`coreness`, :attr:`estimates_sent` (per
    host), :attr:`pipe_bytes_per_round` / :attr:`pipe_bytes_total` (the
    serialized host-to-host traffic; control-plane chatter excluded —
    zero on the shm transport), :attr:`shm_bytes_per_round` /
    :attr:`shm_bytes_total` (ring traffic; empty/zero on the queue
    transport), :attr:`recoveries`
    (one event dict per recovered worker) and :attr:`checkpoint_bytes`
    (total snapshot bytes committed).
    """

    def __init__(
        self,
        sharded: ShardedCSR,
        communication: str = "broadcast",
        mode: str = "lockstep",
        seed: "int | None" = 0,
        p2p_filter: bool = False,
        max_rounds: int = 1_000_000,
        strict: bool = True,
        backend: str = "stdlib",
        start_method: str = "spawn",
        transport: str = "queue",
        reply_timeout: "float | None" = None,
        checkpoint: "CheckpointPolicy | None" = None,
        fault_plan: "FaultPlan | None" = None,
        recover: "bool | None" = None,
        telemetry: object = None,
        recorders=(),
    ) -> None:
        if communication not in ("broadcast", "p2p"):
            raise ConfigurationError(
                f"unknown communication policy {communication!r}; "
                "options: ['broadcast', 'p2p']"
            )
        if p2p_filter and communication != "p2p":
            raise ConfigurationError("p2p_filter requires the p2p policy")
        if mode != "lockstep":
            raise ConfigurationError(
                f"engine='mp' cannot replay mode={mode!r}: peersim "
                "delivers messages immediately in a randomized per-host "
                "activation order, which is inherently sequential across "
                "processes; use mode='lockstep' (or the in-process "
                "engine='flat' for peersim runs)"
            )
        if sharded.num_hosts < 2:
            raise ConfigurationError(
                "engine='mp' spawns one OS process per host shard and "
                f"needs num_hosts >= 2, got {sharded.num_hosts}; a "
                "single host exchanges no messages — use engine='flat'"
            )
        if start_method not in START_METHODS:
            raise ConfigurationError(
                f"unknown start method {start_method!r}; "
                f"options: {list(START_METHODS)}"
            )
        if transport not in TRANSPORTS:
            raise ConfigurationError(
                f"unknown transport {transport!r}; "
                f"options: {list(TRANSPORTS)}"
            )
        if checkpoint is not None and not isinstance(
            checkpoint, CheckpointPolicy
        ):
            raise ConfigurationError(
                "checkpoint must be a repro.sim.checkpoint."
                f"CheckpointPolicy (or None), got {checkpoint!r}"
            )
        if fault_plan is not None:
            if not isinstance(fault_plan, FaultPlan):
                raise ConfigurationError(
                    "fault_plan must be a repro.sim.faults.FaultPlan "
                    f"(or None), got {fault_plan!r}"
                )
            fault_plan.validate_for(sharded.num_hosts)
        # resolve eagerly so an unknown name / missing numpy fails in
        # the parent, before any process is spawned; workers re-resolve
        # by name
        self.backend_name = resolve_backend(backend).name
        self.sharded = sharded
        self.communication = communication
        self.mode = mode
        self.seed = seed  # accepted for signature parity; lockstep never draws
        self.p2p_filter = p2p_filter
        self.max_rounds = max_rounds
        self.strict = strict
        self.start_method = start_method
        self.transport = transport
        if reply_timeout is not None and reply_timeout <= 0:
            raise ConfigurationError(
                f"reply_timeout must be positive, got {reply_timeout!r}"
            )
        self.reply_timeout = (
            default_reply_timeout(sharded.csr.num_nodes, sharded.num_hosts)
            if reply_timeout is None
            else reply_timeout
        )
        self.checkpoint = checkpoint
        self.fault_plan = fault_plan
        self.resilient = (
            recover
            if recover is not None
            else (checkpoint is not None or fault_plan is not None)
        )
        self.tracer = resolve_tracer(telemetry, lane="coordinator")
        self.recorders = list(recorders)
        self._record_blobs: "list[bytes] | None" = None
        #: Extra manifest fields the runner wants persisted (e.g. the
        #: algorithm label a resume should report).
        self.checkpoint_meta: dict = {}
        self.stats = SimulationStats()
        #: Figure-5 overhead numerator per host (filled by :meth:`run`).
        self.estimates_sent: array = array("q")
        #: Serialized host-to-host bytes per round (index 0 == round 1).
        self.pipe_bytes_per_round: list[int] = []
        self.pipe_bytes_total: int = 0
        #: Ring bytes written per round / total (shm transport only —
        #: empty/zero on the queue transport).
        self.shm_bytes_per_round: list[int] = []
        self.shm_bytes_total: int = 0
        #: Pickled size of each worker's shard payload (what start-up
        #: serialization actually shipped) — the cost the config-layer
        #: guard warns about.
        self.shard_payload_bytes: list[int] = []
        #: One dict per recovered worker: worker, round, the checkpoint
        #: round it restored from, replayed round count, resent bytes,
        #: and the recovery's wall-clock seconds.
        self.recoveries: list[dict] = []
        #: Total snapshot bytes committed to the checkpoint directory.
        self.checkpoint_bytes: int = 0
        #: Set on resumed runs: the checkpointed round execution
        #: restarted from (``None`` for fresh runs).
        self.resumed_from_round: "int | None" = None
        self._owned_est: list[list[int]] = []
        self._resume = None  # Checkpoint adopted by run() (resume path)
        # in-memory copy of the newest checkpoint: restore source for
        # in-run worker recovery (round 0 == fresh shard, no snapshot)
        self._ckpt_round = 0
        self._ckpt_blobs: "list[bytes] | None" = None
        # expect counts per dispatched round since the last checkpoint —
        # exactly what a replacement needs to replay deterministically
        self._expect_hist: dict[int, list[int]] = {}
        self._last_barrier_ts = _time.time()
        #: Every process the engine ever spawned (including replaced
        #: workers) — all are reaped by shutdown; tests assert on it.
        self._all_procs: list = []

    # ------------------------------------------------------------------
    def coreness(self) -> dict[int, int]:
        """``{original node id: coreness}`` after :meth:`run`."""
        ids = self.sharded.csr.ids
        out: dict[int, int] = {}
        for shard, owned_est in zip(self.sharded.shards, self._owned_est):
            owned_global = shard.owned_global
            for u, value in enumerate(owned_est):
                out[ids[owned_global[u]]] = value
        return out

    def estimates_sent_total(self) -> int:
        """Sum of the per-host Figure-5 overhead numerators."""
        return sum(self.estimates_sent)

    # ------------------------------------------------------------------
    def _start_worker(self, x: int) -> None:
        """Start worker ``x`` on small handles; fills ``_conns[x]`` /
        ``_procs[x]``.

        The shard travels in :meth:`_boot_worker`, not in the spawn
        arguments: CPython keeps the child's end of the spawn pipe open
        in the parent until ``start()`` has written them, so a worker
        that died while bootstrapping (an import error, a script
        without a ``__main__`` guard) would leave a large write blocked
        forever, before any failure detector runs.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                x, self.sharded.num_hosts, self.communication,
                self.p2p_filter, self.backend_name, self._infinity,
                child_conn, self._inboxes[x], self._inboxes,
                self.resilient, self.tracer.enabled, self._shm_info,
            ),
            daemon=True,
            name=f"kcore-shard-{x}",
        )
        if x == len(self._conns):
            self._conns.append(parent_conn)
            self._procs.append(proc)
        else:
            self._conns[x] = parent_conn
            self._procs[x] = proc
        proc.start()
        self._all_procs.append(proc)
        child_conn.close()

    def _boot_worker(
        self, x: int, restore_blob: "bytes | None", with_faults: bool
    ) -> None:
        """Await started worker ``x``'s first reply (under :meth:`_recv`'s
        timeout and EOF checks), then send its shard, restore, fault and
        recorder blobs over the control pipe."""
        blob = pickle.dumps(
            self.sharded.shards[x], protocol=pickle.HIGHEST_PROTOCOL
        )
        if x == len(self.shard_payload_bytes):
            self.shard_payload_bytes.append(len(blob))
        faults_blob = None
        if with_faults and self.fault_plan is not None:
            mine = self.fault_plan.for_worker(x)
            if mine is not None:
                faults_blob = pickle.dumps(
                    mine, protocol=pickle.HIGHEST_PROTOCOL
                )
        record_blob = (
            None if self._record_blobs is None else self._record_blobs[x]
        )
        self._recv(x, 0)
        try:
            self._conns[x].send((blob, faults_blob, restore_blob, record_blob))
        except OSError:
            raise _WorkerLost(
                x, f"mp worker {x} died before taking its shard", wedged=False
            ) from None

    # ------------------------------------------------------------------
    def _recv(self, x: int, rnd: int, timeout: "float | None" = None) -> tuple:
        """One worker reply, with a failure detector instead of a hang.

        Raises :class:`_WorkerLost` when the worker is dead (closed
        pipe / nonzero exitcode) or wedged (alive but silent past the
        reply timeout); the barrier decides whether that means recovery
        or a loud abort. A worker-reported exception (an actual bug,
        not a process failure) raises ``RuntimeError`` directly — replay
        would only crash again.
        """
        conn = self._conns[x]
        wait = self.reply_timeout if timeout is None else timeout
        when = f"at round {rnd}" if rnd else "during start-up"
        if not conn.poll(wait):
            proc = self._procs[x]
            alive = proc.is_alive()
            raise _WorkerLost(
                x,
                f"mp worker {x} sent no reply within {wait:.0f}s {when} "
                f"(alive={alive}, exitcode={proc.exitcode})",
                wedged=alive,
            )
        try:
            reply = conn.recv()
        except EOFError:
            # the pipe can hit EOF before the OS exit status is
            # reapable; give the join a moment so the reason is useful
            self._procs[x].join(timeout=5.0)
            raise _WorkerLost(
                x,
                f"mp worker {x} died without a reply {when} "
                f"(exitcode={self._procs[x].exitcode})",
                wedged=False,
            ) from None
        if reply[0] == "error":
            raise RuntimeError(f"mp worker {x} failed:\n{reply[1]}")
        return reply

    def _raise_lost(self, lost: "list[_WorkerLost]", rnd: int):
        """Convert detector hits into the loud, documented abort errors.

        The fleet itself is reaped (terminate + join + queue drain) by
        :meth:`_shutdown` on the way out of :meth:`run` — this method
        only picks the right exception.
        """
        ts = datetime.fromtimestamp(self._last_barrier_ts).isoformat(
            timespec="seconds"
        )
        detail = "; ".join(exc.reason for exc in lost)
        if len(lost) > 1:
            why = (
                "more than one worker was lost at the same barrier (out "
                "of scope for in-flight recovery — restart via "
                "resume_from_checkpoint)"
            )
        elif not self.resilient:
            why = (
                "recovery is disabled for this run, so the resend "
                "buffers recovery needs were never kept (configure "
                "OneToManyConfig.checkpoint to enable it)"
            )
        else:
            why = (
                "the loss happened outside a recoverable round barrier "
                "(during recovery itself, a checkpoint barrier, or "
                "result gathering) — restart via resume_from_checkpoint"
            )
        suffix = (
            f" Last barrier completed at {ts}. Recovery was not "
            f"attempted: {why}."
        )
        if any(exc.wedged for exc in lost):
            raise FleetTimeoutError(
                f"the shard fleet is wedged at round {rnd}: {detail}."
                + suffix
                + " If the workers are merely slow, raise "
                "mp_reply_timeout."
            )
        raise RuntimeError(
            f"shard worker lost at round {rnd}: {detail}." + suffix
        )

    # ------------------------------------------------------------------
    def _recover_worker(self, exc: "_WorkerLost", rnd: int) -> tuple:
        """Respawn + replay one lost worker; returns its round report.

        See the module docstring for the protocol. Any further loss
        during recovery propagates as :class:`_WorkerLost` and becomes
        a loud abort — recovery is not attempted recursively.
        """
        t0 = _time.perf_counter()
        x = exc.worker
        proc = self._procs[x]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck in kernel
                proc.kill()
                proc.join(timeout=5.0)
        else:
            proc.join()
        try:
            self._conns[x].close()
        except OSError:  # pragma: no cover - already closed
            pass
        # a terminate inside the dead worker's inbox probe leaves the
        # queue's reader lock held; nobody reads that queue now, so take
        # and drop the lock (frees a held lock, else a no-op)
        self._inboxes[x]._rlock.acquire(block=False)
        self._inboxes[x]._rlock.release()
        from_round = self._ckpt_round
        restore_blob = (
            self._ckpt_blobs[x] if self._ckpt_blobs is not None else None
        )
        # replacements carry no fault plan: a recovered worker does not
        # re-crash on replay (crash-stop model)
        self._start_worker(x)
        self._boot_worker(x, restore_blob, with_faults=False)
        # survivors replay the missed estimate batches from their
        # resend buffers (everything since the last checkpoint)
        resent_batches = 0
        resent_bytes = 0
        survivors = [y for y in range(self.sharded.num_hosts) if y != x]
        for y in survivors:
            self._conns[y].send((_RESEND, x, from_round))
        for y in survivors:
            _tag, count, nbytes = self._recv(y, rnd)
            resent_batches += count
            resent_bytes += nbytes
        # deterministic catch-up to the stuck round, then re-execute it
        replay_rounds = [
            (k, self._expect_hist[k][x]) for k in range(from_round + 1, rnd)
        ]
        self._conns[x].send((_REPLAY, replay_rounds))
        self._recv(x, rnd, timeout=self.reply_timeout * max(1, len(replay_rounds)))
        if rnd == 1:
            self._conns[x].send((_INIT, 2))
        else:
            self._conns[x].send((_STEP, rnd, self._expect_hist[rnd][x]))
        report = self._recv(x, rnd)
        self.recoveries.append(
            {
                "worker": x,
                "round": rnd,
                "restored_from_round": from_round,
                "replayed_rounds": len(replay_rounds),
                "resent_batches": resent_batches,
                "resent_bytes": resent_bytes,
                "seconds": _time.perf_counter() - t0,
                "reason": exc.reason,
            }
        )
        return report

    def _round_barrier(self, rnd: int) -> "dict[int, tuple]":
        """Collect every worker's round report, recovering a lost one.

        Exactly one loss per barrier is recoverable in-flight; two or
        more (or any loss with recovery disabled) abort loudly with the
        whole fleet reaped.
        """
        reports: dict[int, tuple] = {}
        lost: list[_WorkerLost] = []
        for x in range(self.sharded.num_hosts):
            try:
                # per-worker wait spans: the gap between the first and
                # the last recv *is* the barrier skew
                with self.tracer.span("barrier.recv", worker=x, round=rnd):
                    reports[x] = self._recv(x, rnd)
            except _WorkerLost as exc:
                lost.append(exc)
        if lost:
            if not self.resilient or len(lost) > 1:
                self._raise_lost(lost, rnd)
            with self.tracer.span(
                "recovery", worker=lost[0].worker, round=rnd
            ):
                reports[lost[0].worker] = self._recover_worker(lost[0], rnd)
        self._last_barrier_ts = _time.time()
        return reports

    # ------------------------------------------------------------------
    def _checkpoint_barrier(self, rnd, expect, sends, pending, sent_msgs) -> None:
        """The checkpoint barrier: drain, snapshot, commit atomically."""
        with self.tracer.span("checkpoint.commit", round=rnd):
            num_hosts = self.sharded.num_hosts
            for x in range(num_hosts):
                self._conns[x].send((_CHECKPOINT, rnd, expect[x]))
            blobs: list[bytes] = []
            for x in range(num_hosts):
                reply = self._recv(x, rnd)
                blobs.append(reply[1])
            self._ckpt_round = rnd
            self._ckpt_blobs = blobs
            # replay never reaches further back than the checkpoint round
            for k in [k for k in self._expect_hist if k <= rnd]:
                del self._expect_hist[k]
            if self._ckpt_writer is not None:
                coordinator = {
                    "rnd": rnd,
                    "expect": list(expect),
                    "sends": sends,
                    "pending": pending,
                    "sends_per_round": list(self.stats.sends_per_round),
                    "execution_time": self.stats.execution_time,
                    "sent_msgs": list(sent_msgs),
                    "pipe_bytes_per_round": list(self.pipe_bytes_per_round),
                    "shm_bytes_per_round": list(self.shm_bytes_per_round),
                    "recoveries": list(self.recoveries),
                }
                config = {
                    "communication": self.communication,
                    "p2p_filter": self.p2p_filter,
                    "backend": self.backend_name,
                    "num_hosts": num_hosts,
                    "num_nodes": self.sharded.csr.num_nodes,
                    "start_method": self.start_method,
                    "max_rounds": self.max_rounds,
                    "strict": self.strict,
                    "transport": self.transport,
                    "checkpoint_every": self.checkpoint.every_n_rounds,
                    **self.checkpoint_meta,
                }
                self.checkpoint_bytes += self._ckpt_writer.commit(
                    rnd, blobs, coordinator, config
                )

    def _shutdown(self, graceful: bool) -> None:
        """Reap the fleet: every worker joined, every queue drained.

        Tolerates partial startup (``_procs`` only ever holds *started*
        workers; ``_conns`` may be one entry longer if ``Pipe()``
        succeeded but ``Process.start()`` did not) and is the single
        exit path for success, abort and recovery-failure alike — after
        it returns no child of this engine is alive and no queue feeder
        thread holds buffered data (the source of semaphore-leak
        warnings on abort).
        """
        for x, proc in enumerate(self._procs):
            if graceful and proc.is_alive():
                try:
                    self._conns[x].send((_EXIT,))
                except (BrokenPipeError, OSError):
                    pass
        for proc in self._all_procs:
            proc.join(timeout=5.0 if graceful else 0.5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck in kernel
                proc.kill()
                proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for inbox in self._inboxes:
            # drain anything a dead receiver never consumed so the
            # feeder threads release their buffers, then detach —
            # cancel_join_thread keeps an abort from blocking on a
            # feeder that still holds data
            try:
                while True:
                    inbox.get_nowait()
            except (Empty, OSError, ValueError):
                pass
            inbox.cancel_join_thread()
            inbox.close()
        # the coordinator owns the shm segment lifecycle: close its
        # mapping and unlink the name once every worker is reaped (the
        # workers' mappings die with their processes). getattr: shutdown
        # also runs on exceptions raised before run() created any.
        for seg in getattr(self, "_shm_segments", ()):
            try:
                seg.close()
                seg.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        self._shm_segments = []

    # ------------------------------------------------------------------
    def run(self) -> SimulationStats:
        """Run to quiescence (or ``max_rounds``); returns the stats."""
        # deferred for the same import-cycle reason as the flat engine
        from repro.core.one_to_many import INFINITY_INT

        start = _time.perf_counter()
        stats = self.stats
        sharded = self.sharded
        num_hosts = sharded.num_hosts
        self._ctx = mp.get_context(self.start_method)
        self._infinity = INFINITY_INT

        self._inboxes: list = []
        self._conns = []
        self._procs = []
        self._shm_segments: list = []
        self._shm_info: "tuple | None" = None
        self.shard_payload_bytes = []
        self._ckpt_writer = (
            CheckpointWriter(self.checkpoint.dir) if self.checkpoint else None
        )

        resume = self._resume
        sent_msgs = array("q", [0]) * num_hosts
        pipe_bytes = self.pipe_bytes_per_round = []
        shm_bytes = self.shm_bytes_per_round = []
        all_hosts = range(num_hosts)
        tracer = self.tracer
        recorders = self.recorders
        if recorders:
            # reference slices per worker, pickled once — workers diff
            # their owned slice per round and ship the aggregates
            ids = sharded.csr.ids
            self._record_blobs = [
                pickle.dumps(
                    [
                        reference_slice(
                            rec.reference, [ids[g] for g in shard.owned_global]
                        )
                        for rec in recorders
                    ],
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                for shard in sharded.shards
            ]

        def run_round(rnd: int, expect: list[int]) -> tuple[int, list[int]]:
            """One lockstep round on every worker (round 1: Algorithm 3
            initialisation); returns its sends and next round's
            per-worker expected batch counts."""
            self._expect_hist[rnd] = list(expect)
            with tracer.span("round", round=rnd) as round_span:
                for x in all_hosts:
                    self._conns[x].send(
                        (_INIT, 2) if rnd == 1 else (_STEP, rnd, expect[x])
                    )
                reports = self._round_barrier(rnd)
                sends = 0
                round_bytes = 0
                round_shm = 0
                next_expect = [0] * num_hosts
                for x in all_hosts:
                    _tag, dests, nbytes, shm_nb, _diff = reports[x]
                    sends += len(dests)
                    sent_msgs[x] += len(dests)
                    round_bytes += nbytes
                    round_shm += shm_nb
                    for y in dests:
                        next_expect[y] += 1
                round_span.note(sends=sends)
            stats.sends_per_round.append(sends)
            pipe_bytes.append(round_bytes)
            shm_bytes.append(round_shm)
            if sends:
                stats.execution_time += 1
            if recorders:
                record_shard_round(
                    recorders, rnd, sends, [reports[x][4] for x in all_hosts]
                )
            return sends, next_expect

        rnd = 0
        try:
            # -- spawn the fleet (inside the cleanup scope: a failure
            # on worker k must not leak workers 0..k-1). Shards are
            # pickled exactly once — the blob is both the wire payload
            # and the shard_payload_bytes metric.
            self._inboxes.extend(self._ctx.Queue() for _ in all_hosts)
            if self.transport == "shm":
                # coordinator-owned segments: created before the fleet,
                # unlinked after it — they survive any worker's death,
                # which is what keeps in-flight recovery working
                layout = build_shm_layout(sharded)
                with tracer.span(
                    "shm.create",
                    segments=num_hosts,
                    nbytes=sum(layout.seg_bytes),
                ):
                    self._shm_segments = create_segments(layout)
                self._shm_info = (
                    [seg.name for seg in self._shm_segments],
                    layout,
                )
            with tracer.span("spawn", workers=num_hosts):
                # every worker bootstraps in parallel before the first
                # boot reply is awaited
                for x in all_hosts:
                    self._start_worker(x)
                for x in all_hosts:
                    self._boot_worker(
                        x,
                        restore_blob=(
                            resume.worker_blobs[x]
                            if resume is not None
                            else None
                        ),
                        with_faults=resume is None,
                    )
            if self._ckpt_writer is not None:
                # once per run: the partitioned graph itself, so a
                # resume needs nothing but the checkpoint directory
                self.checkpoint_bytes += self._ckpt_writer.write_fleet(
                    pickle.dumps(sharded, protocol=pickle.HIGHEST_PROTOCOL)
                )

            if resume is not None:
                # -- adopt the manifest's loop state; the workers'
                # snapshots already hold the drained mailbox backlog,
                # so the barrier resumes as if never interrupted
                co = resume.coordinator
                rnd = co["rnd"]
                expect = list(co["expect"])
                sends = co["sends"]
                pending = co["pending"]
                stats.sends_per_round.extend(co["sends_per_round"])
                stats.execution_time = co["execution_time"]
                for x, count in enumerate(co["sent_msgs"]):
                    sent_msgs[x] = count
                pipe_bytes.extend(co["pipe_bytes_per_round"])
                shm_bytes.extend(co.get("shm_bytes_per_round", ()))
                self.recoveries.extend(co.get("recoveries", ()))
                self.resumed_from_round = rnd
                self._ckpt_round = rnd
                self._ckpt_blobs = list(resume.worker_blobs)
            else:
                # a fresh fleet starts before round 1, which always runs
                # (lockstep has no intra-round delivery, so the barrier
                # is the only order)
                expect = [0] * num_hosts
                sends = pending = 0

            while rnd == 0 or sends or pending:
                if rnd >= max(1, self.max_rounds):
                    stats.converged = False
                    stats.rounds_executed = rnd
                    break
                rnd += 1
                delivered = sum(expect)
                sends, expect = run_round(rnd, expect)
                pending += sends - delivered
                if self.checkpoint and self.checkpoint.due(rnd):
                    self._checkpoint_barrier(
                        rnd, expect, sends, pending, sent_msgs
                    )
            else:
                stats.rounds_executed = rnd

            # -- gather: worker span buffers (telemetry runs first so
            # the fleet timeline ends before the result recv), then
            # owned estimates + Figure-5 counters
            if tracer.enabled:
                with tracer.span("gather.telemetry"):
                    for x in all_hosts:
                        self._conns[x].send((_TELEMETRY,))
                    worker_events = {}
                    for x in all_hosts:
                        reply = self._recv(x, rnd)
                        worker_events[x] = reply[1]
                merge_worker_buffers(tracer, worker_events)
            with tracer.span("gather.results"):
                for x in all_hosts:
                    self._conns[x].send((_FINISH,))
                self._owned_est = []
                estimates_sent = self.estimates_sent = array("q")
                for x in all_hosts:
                    _tag, owned, est_sent = self._recv(x, rnd)
                    self._owned_est.append(owned)
                    estimates_sent.append(est_sent)
        except _WorkerLost as exc:
            # a loss outside a recoverable barrier (checkpoint / gather /
            # mid-recovery): reap everything, then surface it loudly
            try:
                self._raise_lost([exc], rnd)
            finally:
                self._shutdown(graceful=False)
        except BaseException:
            self._shutdown(graceful=False)
            raise
        self._shutdown(graceful=True)

        export_send_counts(stats, sent_msgs)
        self.pipe_bytes_total = sum(pipe_bytes)
        self.shm_bytes_total = sum(shm_bytes)
        stats.wall_seconds = _time.perf_counter() - start
        if not stats.converged and self.strict:
            raise ConvergenceError(stats.rounds_executed)
        return stats
