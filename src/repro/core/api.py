"""One-call convenience entry points.

Most users want "give me the coreness of this graph, computed the way
the paper computes it". :func:`decompose` dispatches to any of the
implemented algorithms through the table of execution paths
(:mod:`repro.core.paths`); :func:`coreness` returns just the map.
"""

from __future__ import annotations

from repro.baselines.batagelj_zaversnik import batagelj_zaversnik
from repro.baselines.peeling import peeling_coreness
from repro.core.one_to_many import OneToManyConfig, run_one_to_many
from repro.core.one_to_one import OneToOneConfig, run_one_to_one
from repro.core.paths import ALGORITHMS, resolve
from repro.core.result import DecompositionResult, wrap_coreness
from repro.graph.graph import Graph

__all__ = ["decompose", "coreness", "ALGORITHMS"]


def decompose(
    graph: Graph,
    algorithm: str = "one-to-one",
    **options: object,
) -> DecompositionResult:
    """Compute the k-core decomposition of ``graph``.

    ``algorithm`` selects the engine:

    * ``"one-to-one"`` — the distributed node protocol (Algorithm 1);
      options are :class:`~repro.core.one_to_one.OneToOneConfig` fields.
    * ``"one-to-one-flat"`` — the same protocol on the CSR array fast
      path (2-15x throughput depending on graph family and mode, see
      ``BENCH_flat.json``). Defaults to ``mode="lockstep"``; pass
      ``mode="peersim"`` for the Section-5 randomized-activation
      semantics — the flat replay is RNG-identical to ``"one-to-one"``
      with the same seed.
    * ``"one-to-many"`` — the distributed host protocol (Algorithms
      3-5); options are :class:`~repro.core.one_to_many.OneToManyConfig`
      fields, plus ``assignment`` — a precomputed
      :class:`~repro.core.assignment.Assignment` to reuse a placement
      across runs (it overrides ``num_hosts``/``policy``).
    * ``"one-to-many-flat"`` — the same protocol on the sharded CSR
      fast path (see ``BENCH_sharded.json``); identical results per
      (policy, communication, seed), including the Figure-5
      ``estimates_sent`` overhead.
    * ``"one-to-many-mp"`` — the same protocol with one OS process per
      host shard and host-to-host batches over real pipes (defaults to
      ``mode="lockstep"``, the only mode a process fleet can replay);
      identical results to the flat lockstep path, plus pipe-traffic
      metrics in ``stats.extra`` (see ``BENCH_mp.json``). It also takes
      ``fault_plan``, a :class:`~repro.sim.faults.FaultPlan` of
      scripted failures the fleet recovers from.
    * ``"bz"`` — sequential Batagelj–Zaveršnik (reference [3]).
    * ``"peeling"`` — sequential peeling by definition.
    * ``"hindex"`` — the synchronous h-index iteration baseline (Lü et
      al.) as flat CSR sweeps; options: ``max_sweeps``, ``backend``.
    * ``"pregel"`` — the BSP/Pregel port (the paper's Conclusions);
      pass ``engine="flat"`` for the kernel-layer fast path.

    The distributed protocols and the flat baselines take a
    ``backend`` option (``"stdlib"`` default / ``"numpy"`` optional)
    selecting the :mod:`repro.sim.kernels` backend on their flat
    engines; results are bit-identical across backends. An option the
    selected path does not take raises
    :class:`~repro.errors.ConfigurationError`.

    >>> from repro.graph.generators import figure2_example
    >>> decompose(figure2_example(), "bz").coreness[0]
    1
    """
    path = resolve(algorithm, options)
    if path.engine is not None:
        options.setdefault("engine", path.engine)
    if path.modes:
        options.setdefault("mode", path.modes[0])
    if path.algorithm == "one-to-one":
        return run_one_to_one(graph, OneToOneConfig(**options))  # type: ignore[arg-type]
    if path.algorithm == "one-to-many":
        assignment = options.pop("assignment", None)
        fault_plan = options.pop("fault_plan", None)
        return run_one_to_many(
            graph,
            OneToManyConfig(**options),  # type: ignore[arg-type]
            assignment=assignment,  # type: ignore[arg-type]
            fault_plan=fault_plan,  # type: ignore[arg-type]
        )
    return path.load()(graph, **options)


def run_bz(graph: Graph) -> DecompositionResult:
    """Row runner of ``"bz"``."""
    return wrap_coreness(batagelj_zaversnik(graph), "batagelj-zaversnik")


def run_peeling(graph: Graph) -> DecompositionResult:
    """Row runner of ``"peeling"``."""
    return wrap_coreness(peeling_coreness(graph), "peeling")


def run_hindex(graph: Graph, **options: object) -> DecompositionResult:
    """Row runner of ``"hindex"``."""
    from repro.baselines.hindex import hindex_iteration

    values, sweeps = hindex_iteration(graph, **options)  # type: ignore[arg-type]
    result = wrap_coreness(values, "hindex")
    # the baseline exchanges no messages, so the round/message stats
    # stay trivial (like bz/peeling); the Jacobi iteration count —
    # which equals the lockstep engine's convergence rounds — travels
    # in extra
    result.stats.extra["sweeps"] = sweeps
    return result


def coreness(graph: Graph, algorithm: str = "bz") -> dict[int, int]:
    """Just the ``{node: coreness}`` map (default: fast sequential)."""
    return decompose(graph, algorithm).coreness
