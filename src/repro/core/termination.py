"""Termination detection (Section 3.3).

The engines in :mod:`repro.sim` detect quiescence omnisciently (no
sends, no mail in flight) — fine for measuring the protocol itself, but
a real deployment needs an *in-band* mechanism. The paper sketches
three; all are implemented here as process wrappers that compose with
both the one-to-one node processes and the one-to-many host processes:

* **Centralized** (:func:`run_with_centralized_termination`): every
  participant reports ACTIVE/INACTIVE to a master each round; when all
  participants are inactive in the same round the master broadcasts
  STOP. Safe because "all inactive in round r" implies no protocol
  message was sent during r, and everything sent before r has already
  been delivered.
* **Decentralized** (:func:`run_with_gossip_termination`): each
  participant gossips the most recent round in which *any* participant
  generated a new estimate (an epidemic MAX aggregation, reference
  [6]); when that value has not moved for ``threshold`` rounds the
  participant locally declares termination. Approximate by nature —
  the threshold trades detection latency against the risk of declaring
  early; with threshold ≳ graph diameter it is exact in practice.
* **Fixed rounds** (:func:`run_fixed_rounds`): just stop after R rounds
  and accept the residual error; Section 5.1 shows the maximum error is
  ≤ 1 after ~22 rounds on all nine datasets.

Control traffic is tagged so it never collides with protocol payloads;
the reported message counts therefore *include* the detection overhead,
which is the honest way to compare mechanisms.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from repro.core.one_to_one import KCoreNode, OneToOneConfig, build_node_processes
from repro.core.paths import field_defaults, unset
from repro.core.result import DecompositionResult
from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.sim.engine import RoundEngine
from repro.sim.node import Context, Message, Process
from repro.utils.rng import make_rng

__all__ = [
    "run_fixed_rounds",
    "run_with_centralized_termination",
    "run_with_gossip_termination",
    "TerminationReport",
]

_PROTO = "p"
_STATUS = "s"
_STOP = "x"
_GOSSIP = "g"


@dataclass
class TerminationReport:
    """Outcome of a run with in-band termination detection."""

    result: DecompositionResult
    #: Round at which the mechanism declared termination (master's STOP
    #: round, or the last local detection round for gossip).
    detected_round: int
    #: Control messages spent on detection (status/stop/gossip).
    control_messages: int
    #: Last round with observed protocol activity (centralized only;
    #: -1 when the mechanism does not track it).
    last_activity_round: int = -1


# ----------------------------------------------------------------------
# fixed number of rounds
# ----------------------------------------------------------------------
def run_fixed_rounds(
    graph: Graph, rounds: int, config: OneToOneConfig | None = None
) -> DecompositionResult:
    """Stop after exactly ``rounds`` rounds; estimates may be approximate.

    The returned estimates still over-approximate the true coreness
    (safety holds at every prefix of the execution, Theorem 2). All
    other ``config`` fields are honoured — in particular
    ``engine="flat"`` truncates on the CSR fast path with stats
    bit-identical to the object engine.
    """
    if rounds < 1:
        raise ConfigurationError("rounds must be >= 1")
    config = dataclasses.replace(
        config or OneToOneConfig(), fixed_rounds=rounds
    )
    return run_one_to_one_import(graph, config)


def run_one_to_one_import(graph: Graph, config: OneToOneConfig):
    # local import point kept separate for monkeypatching in tests
    from repro.core.one_to_one import run_one_to_one

    return run_one_to_one(graph, config)


# ----------------------------------------------------------------------
# centralized master-slave detection
# ----------------------------------------------------------------------
class _CountingContext:
    """Context shim that tags outgoing protocol payloads and counts them."""

    __slots__ = ("_ctx", "sends")

    def __init__(self) -> None:
        self._ctx: Context | None = None
        self.sends = 0

    def bind(self, ctx: Context) -> None:
        self._ctx = ctx
        self.sends = 0

    @property
    def pid(self) -> int:
        return self._ctx.pid  # type: ignore[union-attr]

    @property
    def round(self) -> int:
        return self._ctx.round  # type: ignore[union-attr]

    @property
    def time(self) -> float:
        return self._ctx.time  # type: ignore[union-attr]

    def send(self, dest: int, payload: object) -> None:
        self.sends += 1
        self._ctx.send(dest, (_PROTO, payload))  # type: ignore[union-attr]


class MonitoredNode(Process):
    """Wraps a protocol process; reports activity to a master each round."""

    __slots__ = ("inner", "master", "stopped", "_shim", "control_sent")

    def __init__(self, inner: Process, master: int) -> None:
        super().__init__(inner.pid)
        self.inner = inner
        self.master = master
        self.stopped = False
        self.control_sent = 0
        self._shim = _CountingContext()

    def on_init(self, ctx: Context) -> None:
        self._shim.bind(ctx)
        self.inner.on_init(self._shim)
        ctx.send(self.master, (_STATUS, True))
        self.control_sent += 1

    def on_messages(self, ctx: Context, messages: Sequence[Message]) -> None:
        self._shim.bind(ctx)
        protocol_batch = []
        for sender, payload in messages:
            kind, body = payload  # type: ignore[misc]
            if kind == _STOP:
                self.stopped = True
            elif kind == _PROTO:
                protocol_batch.append((sender, body))
        if protocol_batch:
            self.inner.on_messages(self._shim, protocol_batch)

    def on_round(self, ctx: Context) -> None:
        if self.stopped:
            return
        self._shim.bind(ctx)
        self.inner.on_round(self._shim)
        active = self._shim.sends > 0
        ctx.send(self.master, (_STATUS, active))
        self.control_sent += 1


class TerminationMaster(Process):
    """Collects status reports; broadcasts STOP when activity ceased.

    Declaration rule: STOP at round ``r`` when (a) no ACTIVE report has
    arrived during rounds ``r-3..r`` and (b) a report from *every*
    participant arrived within that window. Safety: a protocol message
    sent at round ``s`` produces the sender's active report by ``s+1``
    and any consequent activity's report by ``s+2``; a 4-round quiet
    window therefore proves nothing is in flight and nothing will
    reactivate. (Participants report every round, so (b) holds as soon
    as the system is quiet.)
    """

    __slots__ = (
        "participants",
        "detected_round",
        "last_activity_round",
        "_last_report",
        "_last_active_arrival",
        "_stopped",
    )

    _QUIET_WINDOW = 4

    def __init__(self, pid: int, participants: Sequence[int]) -> None:
        super().__init__(pid)
        self.participants = tuple(participants)
        self.detected_round = -1
        self.last_activity_round = 0
        self._last_report: dict[int, int] = {}
        self._last_active_arrival = 0
        self._stopped = False

    def on_messages(self, ctx: Context, messages: Sequence[Message]) -> None:
        for sender, payload in messages:
            kind, active = payload  # type: ignore[misc]
            if kind == _STATUS:
                self._last_report[sender] = ctx.round
                if active:
                    self._last_active_arrival = ctx.round
                    self.last_activity_round = ctx.round

    def on_round(self, ctx: Context) -> None:
        if self._stopped or not self.participants:
            return
        window_start = ctx.round - self._QUIET_WINDOW + 1
        quiet = self._last_active_arrival < window_start
        covered = len(self._last_report) == len(self.participants) and all(
            reported >= window_start
            for reported in self._last_report.values()
        )
        if quiet and covered:
            self.detected_round = ctx.round
            self._stopped = True
            for pid in self.participants:
                ctx.send(pid, (_STOP, None))


#: The :class:`OneToOneConfig` fields the in-band detectors read. They
#: wrap the node processes on their own object round engine, so any
#: other field set off its default would be ignored, and is rejected.
DETECTOR_FIELDS = ("mode", "optimize_sends", "seed", "max_rounds", "strict")


def _detector_config(
    config: OneToOneConfig | None, wrapper: str
) -> OneToOneConfig:
    config = config or OneToOneConfig()
    ignored = []
    for name, default in field_defaults(config).items():
        value = getattr(config, name)
        if name not in DETECTOR_FIELDS and not unset(value, default):
            ignored.append(f"{name}={value!r}")
    if ignored:
        raise ConfigurationError(
            f"{wrapper} runs the object round engine and reads only "
            f"{', '.join(DETECTOR_FIELDS)}; it would ignore "
            f"{', '.join(ignored)}"
        )
    return config


def run_with_centralized_termination(
    graph: Graph,
    config: OneToOneConfig | None = None,
) -> TerminationReport:
    """One-to-one protocol under master-slave termination detection."""
    config = _detector_config(config, "run_with_centralized_termination")
    inner = build_node_processes(graph, config.optimize_sends)
    master_pid = (max(inner) + 1) if inner else 0
    wrapped: dict[int, Process] = {
        pid: MonitoredNode(node, master_pid) for pid, node in inner.items()
    }
    master = TerminationMaster(master_pid, sorted(inner))
    wrapped[master_pid] = master
    engine = RoundEngine(
        wrapped,
        mode=config.mode,
        seed=config.seed,
        max_rounds=config.max_rounds,
        strict=config.strict,
    )
    stats = engine.run()
    coreness = {pid: node.core for pid, node in inner.items()}
    control = sum(
        w.control_sent for w in wrapped.values() if isinstance(w, MonitoredNode)
    ) + len(inner)  # master's STOP broadcast
    result = DecompositionResult(
        coreness=coreness, stats=stats, algorithm="one-to-one/centralized-term"
    )
    return TerminationReport(
        result=result,
        detected_round=master.detected_round,
        control_messages=control,
        last_activity_round=master.last_activity_round,
    )


# ----------------------------------------------------------------------
# decentralized gossip detection
# ----------------------------------------------------------------------
class GossipTerminationNode(Process):
    """k-core node + epidemic MAX aggregation of last-activity round.

    Piggybacks a push gossip: every round, while termination has not
    been locally declared, the node sends its current view of "the most
    recent round in which anyone generated a new estimate" to ``fanout``
    random peers. The view is the MAX of everything heard and of the
    node's own activity. When ``round - view > threshold`` the node
    declares termination and goes silent.
    """

    __slots__ = (
        "inner",
        "peers",
        "fanout",
        "threshold",
        "rng",
        "last_activity",
        "detected_round",
        "control_sent",
        "_shim",
    )

    def __init__(
        self,
        inner: KCoreNode,
        peers: Sequence[int],
        threshold: int,
        fanout: int = 1,
        seed: int = 0,
    ) -> None:
        super().__init__(inner.pid)
        self.inner = inner
        self.peers = tuple(p for p in peers if p != inner.pid)
        self.fanout = fanout
        self.threshold = threshold
        self.rng = make_rng(seed)
        self.last_activity = 1  # everyone is active in round 1
        self.detected_round = -1
        self.control_sent = 0
        self._shim = _CountingContext()

    def on_init(self, ctx: Context) -> None:
        self._shim.bind(ctx)
        self.inner.on_init(self._shim)

    def on_messages(self, ctx: Context, messages: Sequence[Message]) -> None:
        self._shim.bind(ctx)
        protocol_batch = []
        for sender, payload in messages:
            kind, body = payload  # type: ignore[misc]
            if kind == _GOSSIP:
                if body > self.last_activity:
                    self.last_activity = body
            else:
                protocol_batch.append((sender, body))
        if protocol_batch:
            self.inner.on_messages(self._shim, protocol_batch)

    def on_round(self, ctx: Context) -> None:
        self._shim.bind(ctx)
        self.inner.on_round(self._shim)
        if self._shim.sends > 0:
            self.last_activity = max(self.last_activity, ctx.round)
        if self.detected_round >= 0:
            return
        if ctx.round - self.last_activity > self.threshold:
            self.detected_round = ctx.round
            return
        if self.peers:
            for _ in range(min(self.fanout, len(self.peers))):
                peer = self.peers[self.rng.randrange(len(self.peers))]
                ctx.send(peer, (_GOSSIP, self.last_activity))
                self.control_sent += 1


def run_with_gossip_termination(
    graph: Graph,
    threshold: int,
    config: OneToOneConfig | None = None,
    fanout: int = 1,
) -> TerminationReport:
    """One-to-one protocol under decentralized gossip detection.

    ``threshold`` is the silence window (rounds) after which a node
    declares global termination; the epidemic MAX spreads activity
    news in O(log N) rounds w.h.p., so thresholds of a few tens are
    already conservative for the graphs studied here.
    """
    if threshold < 1:
        raise ConfigurationError("threshold must be >= 1")
    config = _detector_config(config, "run_with_gossip_termination")
    inner = build_node_processes(graph, config.optimize_sends)
    pids = sorted(inner)
    seed_base = config.seed if config.seed is not None else 0
    wrapped: dict[int, Process] = {
        pid: GossipTerminationNode(
            node,
            peers=pids,
            threshold=threshold,
            fanout=fanout,
            seed=seed_base + pid,
        )
        for pid, node in inner.items()
    }
    engine = RoundEngine(
        wrapped,
        mode=config.mode,
        seed=config.seed,
        max_rounds=config.max_rounds,
        strict=config.strict,
    )
    stats = engine.run()
    coreness = {pid: node.core for pid, node in inner.items()}
    nodes = [w for w in wrapped.values() if isinstance(w, GossipTerminationNode)]
    detected = max((n.detected_round for n in nodes), default=-1)
    control = sum(n.control_sent for n in nodes)
    result = DecompositionResult(
        coreness=coreness, stats=stats, algorithm="one-to-one/gossip-term"
    )
    return TerminationReport(
        result=result, detected_round=detected, control_messages=control
    )
