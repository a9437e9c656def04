"""A long-lived churn-absorbing coreness service.

The live-overlay scenario is a server loop: churn events stream in,
coreness queries arrive in between. :class:`ChurnService` is that loop
as an object — it buffers submitted events, applies them in fixed-size
batches through :class:`~repro.streaming.flat_maintenance.
FlatDynamicKCore` (one re-convergence per delete run), and *flushes
the buffer before answering any query*, so every answer reflects every
event submitted before it. Batch size trades latency for batching win;
queries are the consistency barrier. An event that raises (a join of a
present node, say) propagates from the call that applied it —
``submit``, ``flush`` or a query — and is dropped; the events after it
stay queued for the next call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.errors import ConfigurationError
from repro.streaming.flat_maintenance import FlatDynamicKCore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.churn import ChurnEvent

__all__ = ["ChurnService"]


class ChurnService:
    """Absorbs churn batches; answers coreness queries between them.

    >>> service = ChurnService(batch_size=64)
    >>> from repro.workloads.churn import ChurnEvent
    >>> service.submit([ChurnEvent(0.0, "join", (0,)),
    ...                 ChurnEvent(1.0, "join", (1, 0))])
    0
    >>> service.pending        # buffered: batch not full yet
    2
    >>> service.coreness_of(0)  # query flushes the pending buffer
    1
    """

    def __init__(
        self,
        graph=None,
        *,
        batch_size: int = 64,
        telemetry=None,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        self._engine = FlatDynamicKCore(graph, telemetry=telemetry)
        self._batch_size = batch_size
        self._queue: list = []
        self.batches_applied = 0

    # ------------------------------------------------------------------
    @property
    def engine(self) -> FlatDynamicKCore:
        """The underlying flat maintenance engine."""
        return self._engine

    @property
    def metrics(self) -> dict[str, Any]:
        """The engine's registered streaming metrics."""
        return self._engine.metrics

    @property
    def pending(self) -> int:
        """Events buffered but not yet applied."""
        return len(self._queue)

    # ------------------------------------------------------------------
    def submit(self, events: "Iterable[ChurnEvent]") -> int:
        """Buffer events; apply every full batch. Returns batches run."""
        self._queue.extend(events)
        ran = 0
        while len(self._queue) >= self._batch_size:
            self._apply(self._batch_size)
            ran += 1
        return ran

    def flush(self) -> int:
        """Apply whatever is buffered as one final (short) batch."""
        if not self._queue:
            return 0
        self._apply(len(self._queue))
        return 1

    def _apply(self, size: int) -> None:
        """Apply the first ``size`` queued events as one batch; when an
        event raises, the events after it go back to the head of the
        queue. ``apply_events`` draws the batch from an iterator, so
        what it did not draw is exactly that tail."""
        rest = iter(self._queue[:size])
        del self._queue[:size]
        try:
            self._engine.apply_events(rest)
        finally:
            self._queue[:0] = rest
        self.batches_applied += 1

    # ------------------------------------------------------------------
    def coreness_of(self, node: int) -> int:
        """Current coreness of ``node`` (flushes pending events)."""
        self.flush()
        return self._engine.coreness_of(node)

    def core(self, k: int) -> set[int]:
        """Nodes of the current k-core (flushes pending events)."""
        self.flush()
        return self._engine.core(k)

    def coreness(self) -> dict[int, int]:
        """The full coreness map (flushes pending events)."""
        self.flush()
        return dict(self._engine.coreness)

    def verify(self) -> bool:
        """Flush, then cross-check against full recomputation."""
        self.flush()
        return self._engine.verify()
