"""Table 2 — which cores delay the completion of the protocol.

For the slowest graph (web-BerkStan) the paper drills into *per-core
completion*: for each coreness value ``k``, the percentage of nodes of
the ``k``-shell whose estimate is still wrong at round checkpoints
t = 25, 50, ..., 300. The punchline: the big 55-core looks problematic
early (half of it wrong at round 25) but completes by round 225, while
the *1-core* — "deep" pages far from everything — is what drags on past
round 300, because errors travel one hop per round along chains.

:class:`CoreCompletionObserver` snapshots the per-shell wrong counts at
the requested checkpoints; :func:`core_completion_table` renders rows
shaped exactly like Table 2.
"""

from __future__ import annotations

import dataclasses

from repro.baselines.batagelj_zaversnik import batagelj_zaversnik
from repro.core.one_to_one import KCoreNode, OneToOneConfig, run_one_to_one
from repro.core.result import DecompositionResult
from repro.graph.graph import Graph
from repro.sim.engine import RoundEngine

__all__ = ["CoreCompletionObserver", "core_completion_table"]


class CoreCompletionObserver:
    """Snapshot per-shell wrong-estimate percentages at checkpoints."""

    def __init__(self, truth: dict[int, int], checkpoints: list[int]) -> None:
        self.truth = truth
        self.checkpoints = sorted(checkpoints)
        #: shell -> number of nodes (the Table's "#" column)
        self.shell_sizes: dict[int, int] = {}
        for k in truth.values():
            self.shell_sizes[k] = self.shell_sizes.get(k, 0) + 1
        #: checkpoint round -> {shell: wrong node count}
        self.wrong_at: dict[int, dict[int, int]] = {}

    def __call__(self, round_number: int, engine: RoundEngine) -> None:
        if round_number not in self.checkpoints:
            return
        wrong: dict[int, int] = {}
        for pid, process in engine.processes.items():
            if not isinstance(process, KCoreNode):  # pragma: no cover
                continue
            true_k = self.truth[pid]
            if process.core != true_k:
                wrong[true_k] = wrong.get(true_k, 0) + 1
        self.wrong_at[round_number] = wrong

    def percentage(self, shell: int, checkpoint: int) -> float:
        """% of the ``shell``-shell still wrong at ``checkpoint``."""
        wrong = self.wrong_at.get(checkpoint, {}).get(shell, 0)
        size = self.shell_sizes.get(shell, 0)
        return 100.0 * wrong / size if size else 0.0


def core_completion_table(
    graph: Graph,
    checkpoints: list[int],
    config: OneToOneConfig | None = None,
    truth: dict[int, int] | None = None,
) -> tuple[DecompositionResult, CoreCompletionObserver, list[list[object]]]:
    """Run the protocol on the round engine and build Table-2-shaped rows.

    ``config`` runs as given (``fixed_rounds``, ``telemetry`` and its
    ``observers`` included) with the completion observer added.

    Returns ``(result, observer, rows)`` where each row is
    ``[k, shell_size, pct@t1, pct@t2, ...]`` for every shell that is
    still incomplete at the first checkpoint (matching the paper, which
    omits the cores already correct by round 25).
    """
    config = config or OneToOneConfig()
    truth = truth if truth is not None else batagelj_zaversnik(graph)
    observer = CoreCompletionObserver(truth, checkpoints)
    result = run_one_to_one(
        graph,
        dataclasses.replace(
            config, engine="round", observers=(*config.observers, observer)
        ),
    )
    result.algorithm = "one-to-one/core-completion"

    first = observer.checkpoints[0]
    rows: list[list[object]] = []
    for shell in sorted(observer.shell_sizes):
        if observer.percentage(shell, first) == 0.0:
            continue
        row: list[object] = [shell, observer.shell_sizes[shell]]
        for checkpoint in observer.checkpoints:
            pct = observer.percentage(shell, checkpoint)
            row.append(round(pct, 2) if pct else "")
        rows.append(row)
    return result, observer, rows
