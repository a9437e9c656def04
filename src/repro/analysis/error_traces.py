"""Figure 4 — evolution of the estimation error over time.

The paper tracks, per round, the difference between each node's current
estimate and its true coreness: the *average* error over all nodes
(Figure 4 left, log scale) and the *maximum* error over all nodes
(Figure 4 right). Its headline observation: "in all our experimental
data sets, the maximum error is at most equal to 1 by cycle 22" — which
justifies the fixed-rounds termination mode.

:class:`ErrorTraceObserver` plugs into the round engine and snapshots
both series; :func:`run_with_error_trace` is the convenience wrapper.
"""

from __future__ import annotations

import dataclasses

from repro.baselines.batagelj_zaversnik import batagelj_zaversnik
from repro.core.one_to_one import KCoreNode, OneToOneConfig, run_one_to_one
from repro.core.result import DecompositionResult
from repro.graph.graph import Graph
from repro.sim.engine import RoundEngine

__all__ = ["ErrorTraceObserver", "run_with_error_trace"]


class ErrorTraceObserver:
    """Record per-round average and maximum estimate error.

    ``truth`` is the exact coreness (from a sequential baseline). After
    the run, :attr:`average_error` and :attr:`maximum_error` hold one
    value per executed round (index 0 == round 1).
    """

    def __init__(self, truth: dict[int, int]) -> None:
        self.truth = truth
        self.average_error: list[float] = []
        self.maximum_error: list[int] = []

    def __call__(self, round_number: int, engine: RoundEngine) -> None:
        total = 0
        worst = 0
        for pid, process in engine.processes.items():
            if not isinstance(process, KCoreNode):  # pragma: no cover
                continue
            err = process.core - self.truth[pid]
            total += err
            if err > worst:
                worst = err
        count = len(engine.processes)
        self.average_error.append(total / count if count else 0.0)
        self.maximum_error.append(worst)

    def rounds_to_max_error(self, threshold: int) -> int | None:
        """First round whose maximum error is <= ``threshold``."""
        for index, err in enumerate(self.maximum_error):
            if err <= threshold:
                return index + 1
        return None


def run_with_error_trace(
    graph: Graph,
    config: OneToOneConfig | None = None,
    truth: dict[int, int] | None = None,
) -> tuple[DecompositionResult, ErrorTraceObserver]:
    """Run the one-to-one protocol on the round engine while recording
    the Figure-4 series."""
    config = config or OneToOneConfig()
    truth = truth if truth is not None else batagelj_zaversnik(graph)
    observer = ErrorTraceObserver(truth)
    result = run_one_to_one(
        graph,
        dataclasses.replace(
            config, engine="round", observers=(*config.observers, observer)
        ),
    )
    result.algorithm = "one-to-one/error-trace"
    return result, observer
