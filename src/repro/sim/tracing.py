"""Structured run traces: capture, summarize, export.

An observer that records per-round aggregates of a protocol run —
messages sent, number of processes whose public ``core`` changed,
current error against an optional reference — and serialises the trace
as JSON for external tooling. The benchmark harness writes CSV for the
paper's figures; this is the complementary "give me everything about
one run" facility for debugging and notebooks.

Two feeding paths produce identical snapshots:

* as an engine **observer** (``observer(round_number, engine)``) on the
  object :class:`~repro.sim.engine.RoundEngine`, walking the live
  process objects;
* via :meth:`TraceRecorder.record` with precomputed aggregates — how
  the flat and mp engines attach a recorder without materialising
  process objects (they diff their estimate arrays per round; the mp
  coordinator sums per-worker aggregates shipped with the round
  reports). On one-to-many runs the array-diff path is strictly more
  informative than observing object ``KCoreHost``\\ s, which expose no
  per-node ``core``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import RoundEngine

__all__ = [
    "RoundSnapshot",
    "TraceRecorder",
    "diff_round",
    "record_flat_round",
    "record_shard_round",
    "recorders_from_observers",
    "reference_slice",
]


@dataclass(frozen=True)
class RoundSnapshot:
    """Aggregates for one executed round."""

    round_number: int
    messages_sent: int
    estimates_changed: int
    total_error: int | None


@dataclass
class TraceRecorder:
    """Engine observer collecting :class:`RoundSnapshot` per round.

    ``reference`` (optional) is the true coreness; when provided, each
    snapshot carries the summed residual error. Processes are expected
    to expose an integer ``core`` attribute (all k-core processes do).
    """

    reference: dict[int, int] | None = None
    snapshots: list[RoundSnapshot] = field(default_factory=list)
    _last_cores: dict[int, int] = field(default_factory=dict, repr=False)

    def __call__(self, round_number: int, engine: "RoundEngine") -> None:
        changed = 0
        error: int | None = 0 if self.reference is not None else None
        for pid, process in engine.processes.items():
            core = getattr(process, "core", None)
            if core is None:
                continue
            if self._last_cores.get(pid) != core:
                changed += 1
                self._last_cores[pid] = core
            if self.reference is not None and error is not None:
                error += core - self.reference[pid]
        self.snapshots.append(
            RoundSnapshot(
                round_number=round_number,
                messages_sent=engine.stats.sends_per_round[-1],
                estimates_changed=changed,
                total_error=error,
            )
        )

    def record(
        self,
        round_number: int,
        messages_sent: int,
        estimates_changed: int,
        total_error: int | None,
    ) -> None:
        """Append one round's precomputed aggregates (flat/mp engines).

        The direct-feed counterpart of the observer ``__call__``: the
        caller supplies the aggregates (array diffs, summed worker
        reports) instead of the recorder walking process objects.
        ``total_error`` follows the same convention — ``None`` when no
        reference is configured, the signed residual sum otherwise.
        """
        self.snapshots.append(
            RoundSnapshot(
                round_number=round_number,
                messages_sent=messages_sent,
                estimates_changed=estimates_changed,
                total_error=total_error,
            )
        )

    # ------------------------------------------------------------------
    @property
    def rounds(self) -> int:
        return len(self.snapshots)

    def quiet_rounds(self) -> int:
        """Rounds with no sends (trailing detection rounds, stalls)."""
        return sum(1 for snap in self.snapshots if snap.messages_sent == 0)

    def to_json(self, indent: int | None = None) -> str:
        """Serialise the trace (stable field order, JSON lines friendly)."""
        payload = [
            {
                "round": snap.round_number,
                "messages": snap.messages_sent,
                "changed": snap.estimates_changed,
                "error": snap.total_error,
            }
            for snap in self.snapshots
        ]
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "TraceRecorder":
        """Rebuild a recorder (snapshots only) from :meth:`to_json` output."""
        recorder = cls()
        for item in json.loads(text):
            recorder.snapshots.append(
                RoundSnapshot(
                    round_number=item["round"],
                    messages_sent=item["messages"],
                    estimates_changed=item["changed"],
                    total_error=item["error"],
                )
            )
        return recorder


# ----------------------------------------------------------------------
# Array-diff feeding path (flat and mp engines)

def recorders_from_observers(
    observers, engine: str
) -> "tuple[TraceRecorder, ...]":
    """Validate flat/mp ``observers``: :class:`TraceRecorder` only.

    The array engines materialise no process objects, so generic
    observers — ``observer(round_number, engine)`` callables poking at
    ``engine.processes`` — cannot run there and are rejected loudly.
    :class:`TraceRecorder` instances pass through: they are fed the
    array-diff aggregates instead and produce the same snapshots as the
    object engine's observer path.
    """
    from repro.errors import ConfigurationError

    recorders = tuple(o for o in observers if isinstance(o, TraceRecorder))
    if len(recorders) != len(observers):
        raise ConfigurationError(
            f"engine={engine!r} does not support generic observers: "
            "round-engine hooks cannot observe state the array engines "
            "never materialise (or, for 'mp', state living in other OS "
            "processes); use engine='round' for custom traced runs. "
            "TraceRecorder instances are the exception — they are fed "
            "through the engines' array-diff path."
        )
    return recorders


def reference_slice(
    reference: "dict[int, int] | None", ids: "list[int]"
) -> "list[int] | None":
    """A recorder's reference re-indexed to compact array order.

    ``ids[i]`` is the original node id at compact index ``i`` (a
    ``CSRGraph.ids`` slice, or one shard's owned ids), so the result
    lines up with the engine's estimate arrays.
    """
    if reference is None:
        return None
    return [reference[node] for node in ids]


def diff_round(
    values: "object",
    prev: "list[int]",
    refs: "list[list[int] | None]",
) -> "tuple[int, list[int | None]]":
    """One round's aggregates over an estimate array slice.

    Counts entries of ``values`` differing from ``prev`` (updating
    ``prev`` in place, so consecutive calls see per-round deltas; seed
    ``prev`` with ``-1`` so the first round counts every node — the
    observer path does the same via its first-observation rule) and,
    per reference slice in ``refs``, the signed residual
    ``sum(values[i] - ref[i])``. mp workers run this on their owned
    slice and ship the result with the round report; the coordinator
    sums shard aggregates — addition is associative, so sharding does
    not change the totals.
    """
    n = len(prev)
    changed = 0
    for i in range(n):
        value = values[i]
        if value != prev[i]:
            changed += 1
            prev[i] = value
    errors: "list[int | None]" = []
    for ref in refs:
        if ref is None:
            errors.append(None)
        else:
            total = 0
            for i in range(n):
                total += int(values[i]) - ref[i]
            errors.append(total)
    return changed, errors


def record_flat_round(
    recorders: "list[TraceRecorder]",
    refs: "list[list[int] | None]",
    round_number: int,
    messages_sent: int,
    values: "object",
    prev: "list[int]",
) -> None:
    """Diff one round and feed every attached recorder (flat engines)."""
    changed, errors = diff_round(values, prev, refs)
    for recorder, error in zip(recorders, errors):
        recorder.record(round_number, messages_sent, changed, error)


def record_shard_round(
    recorders: "list[TraceRecorder]",
    round_number: int,
    messages_sent: int,
    diffs,
) -> None:
    """Sum per-shard :func:`diff_round` aggregates, feed every recorder.

    The sharded engines diff each shard's owned slice separately;
    addition is associative, so the sums equal one whole-graph diff.
    """
    changed = 0
    errors: "list[int | None]" = [
        0 if rec.reference is not None else None for rec in recorders
    ]
    for shard_changed, shard_errors in diffs:
        changed += shard_changed
        for j, err in enumerate(shard_errors):
            if err is not None:
                errors[j] += err
    for rec, err in zip(recorders, errors):
        rec.record(round_number, messages_sent, changed, err)
