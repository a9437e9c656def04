"""Structured run traces: capture, summarize, export.

An observer that records per-round aggregates of a protocol run —
messages sent, number of nodes whose estimate changed, current error
against an optional reference — and serialises the trace as JSON for
external tooling. The benchmark harness writes CSV for the paper's
figures; this is the complementary "give me everything about one run"
facility for debugging and notebooks.

The recorder is an observer (``observer(round_number, engine)``) of the
object :class:`~repro.sim.engine.RoundEngine`, so a traced run of
either protocol runs on ``engine="round"``. It reads each node
process's ``core`` and, on a one-to-many host
(:class:`~repro.core.one_to_many.KCoreHost`), the estimate ``est[u]``
of every node ``u`` the host owns, so both protocols are traced node by
node. The flat and mp engines replay the object engine bit for bit and
take no observers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import RoundEngine

__all__ = ["RoundSnapshot", "TraceRecorder"]


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
    snapshot carries the summed residual error. Counts and errors are
    per node: a node process's ``core``, or each owned node's ``est`` on
    a host.
    """

    reference: dict[int, int] | None = None
    snapshots: list[RoundSnapshot] = field(default_factory=list)
    _last_cores: dict[int, int] = field(default_factory=dict, repr=False)

    def __call__(self, round_number: int, engine: "RoundEngine") -> None:
        changed = 0
        error: int | None = 0 if self.reference is not None else None
        for node, core in _node_estimates(engine.processes):
            if self._last_cores.get(node) != core:
                changed += 1
                self._last_cores[node] = core
            if self.reference is not None and error is not None:
                error += core - self.reference[node]
        self.snapshots.append(
            RoundSnapshot(
                round_number=round_number,
                messages_sent=engine.stats.sends_per_round[-1],
                estimates_changed=changed,
                total_error=error,
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


def _node_estimates(processes):
    """``(node, estimate)`` for every node the processes run: a node
    process's ``core``, each owned node's ``est`` on a host; any other
    process is skipped."""
    for pid, process in processes.items():
        core = getattr(process, "core", None)
        if core is not None:
            yield pid, core
        elif hasattr(process, "owned"):
            est = process.est
            for u in process.owned:
                yield u, est[u]
