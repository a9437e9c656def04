"""One table of execution paths: every way ``decompose`` can run.

A :class:`Path` row is one protocol on one engine — Algorithm 1 on the
``round``, ``async`` and flat (``peersim`` and ``lockstep``) engines,
Algorithms 3-5 on ``round``, ``async``, ``flat`` and ``mp`` — or one
baseline. A row names its runner, imported only when the row runs (so
the mp fleet and numpy stay out of ``import repro``), and everything it
accepts: activation modes, kernel backends, the fleet fields, whether
it has rounds, observers and telemetry, the algorithm alias that
implies it, and its further options.

:func:`resolve` is the one validation layer: it picks the row for an
algorithm and its options, and rejects every option that row does not
take with a :class:`~repro.errors.ConfigurationError` naming the option
and the algorithm. :func:`~repro.core.api.decompose`,
:func:`~repro.core.one_to_one.run_one_to_one`,
:func:`~repro.core.one_to_many.run_one_to_many`, the CLI's ``decompose``
command and the RPL004 lint rule all read this table.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.sim.kernels import BACKEND_NAMES, resolve_backend
from repro.telemetry import finish_run_telemetry, run_tracer

__all__ = ["Path", "PATHS", "ALGORITHMS", "select", "resolve", "run"]

STDLIB = ("stdlib",)
BOTH = ("stdlib", "numpy")

#: Options a row takes only when it runs in rounds, is traced, or
#: spawns the mp fleet.
ROUND_OPTIONS = ("max_rounds", "fixed_rounds")
TELEMETRY_OPTIONS = ("telemetry", "trace_out")
FLEET_OPTIONS = (
    "mp_start_method", "mp_reply_timeout", "mp_transport", "checkpoint",
    "fault_plan",
)

#: Options every row of a protocol or baseline family takes.
_ONE_TO_ONE = ("seed", "optimize_sends", "strict")
_ONE_TO_MANY = (
    "seed", "strict", "num_hosts", "policy", "communication",
    "use_worklist", "p2p_filter", "assignment",
)
_PREGEL = (
    "num_workers", "optimize_sends", "partition_policy", "use_combiner",
    "max_supersteps",
)


@dataclass(frozen=True)
class Path:
    """One execution path: a protocol on one engine, or a baseline."""

    algorithm: str
    #: The ``engine=`` value selecting this row; ``None`` for a
    #: baseline with a single implementation.
    engine: "str | None"
    #: ``"module:function"``; protocol runners are called as
    #: ``runner(graph, config, tracer, **extra)``, baseline runners as
    #: ``runner(graph, **options)``.
    runner: str
    modes: "tuple[str, ...]" = ()
    backends: "tuple[str, ...]" = ()
    #: Takes the mp fleet fields (``mp_*``, ``checkpoint``, ``fault_plan``).
    fleet: bool = False
    #: Runs in rounds, so takes ``max_rounds`` and ``fixed_rounds``.
    rounds: bool = False
    #: ``"any"`` (round-engine hooks), ``"recorders"``
    #: (:class:`~repro.sim.tracing.TraceRecorder` only) or ``None``.
    observers: "str | None" = None
    telemetry: bool = False
    #: The algorithm name that implies this row's engine and first mode.
    alias: "str | None" = None
    options: "tuple[str, ...]" = ()

    def takes(self, name: str) -> bool:
        """Whether this row takes option ``name``."""
        gated = {
            "engine": self.engine is not None,
            "mode": bool(self.modes),
            "backend": bool(self.backends),
            "observers": self.observers is not None,
            **dict.fromkeys(ROUND_OPTIONS, self.rounds),
            **dict.fromkeys(TELEMETRY_OPTIONS, self.telemetry),
            **dict.fromkeys(FLEET_OPTIONS, self.fleet),
        }
        return gated.get(name, name in self.options)

    def load(self) -> "Callable[..., Any]":
        module, _, name = self.runner.partition(":")
        return getattr(import_module(module), name)


_O2O = "repro.core.one_to_one:"
_O2M = "repro.core.one_to_many:"

PATHS: "tuple[Path, ...]" = (
    Path("one-to-one", "round", _O2O + "run_objects",
         modes=("peersim", "lockstep"), backends=STDLIB, rounds=True,
         observers="any", telemetry=True, options=_ONE_TO_ONE),
    Path("one-to-one", "async", _O2O + "run_objects",
         modes=("peersim",), backends=STDLIB,
         options=_ONE_TO_ONE + ("latency", "async_max_time")),
    # peersim first: engine="flat" without a mode keeps the config's
    # default mode; only the alias implies lockstep
    Path("one-to-one", "flat", _O2O + "run_flat",
         modes=("peersim",), backends=STDLIB, rounds=True,
         observers="recorders", telemetry=True, options=_ONE_TO_ONE),
    Path("one-to-one", "flat", _O2O + "run_flat",
         modes=("lockstep",), backends=BOTH, rounds=True,
         observers="recorders", telemetry=True, alias="one-to-one-flat",
         options=_ONE_TO_ONE),
    Path("one-to-many", "round", _O2M + "run_objects",
         modes=("peersim", "lockstep"), backends=STDLIB, rounds=True,
         observers="any", telemetry=True, options=_ONE_TO_MANY),
    Path("one-to-many", "async", _O2M + "run_objects",
         modes=("peersim",), backends=STDLIB, options=_ONE_TO_MANY),
    Path("one-to-many", "flat", _O2M + "run_flat",
         modes=("peersim", "lockstep"), backends=BOTH, rounds=True,
         observers="recorders", telemetry=True, alias="one-to-many-flat",
         options=_ONE_TO_MANY),
    # a process fleet can replay only lockstep, so that is its default
    Path("one-to-many", "mp", _O2M + "run_mp",
         modes=("lockstep",), backends=BOTH, fleet=True, rounds=True,
         observers="recorders", telemetry=True, alias="one-to-many-mp",
         options=_ONE_TO_MANY),
    Path("bz", None, "repro.core.api:run_bz"),
    Path("peeling", None, "repro.core.api:run_peeling"),
    Path("hindex", None, "repro.core.api:run_hindex",
         backends=BOTH, options=("max_sweeps",)),
    Path("pregel", "object", "repro.pregel.kcore:run_pregel_kcore",
         backends=STDLIB, options=_PREGEL),
    Path("pregel", "flat", "repro.pregel.kcore:run_pregel_kcore",
         backends=BOTH, options=_PREGEL),
)

#: Every name :func:`select` accepts: the protocols and baselines, each
#: alias after its protocol.
ALGORITHMS: "tuple[str, ...]" = tuple(
    dict.fromkeys(
        name for path in PATHS for name in (path.algorithm, path.alias) if name
    )
)


def select(algorithm: str, engine: "str | None" = None) -> Path:
    """The row ``algorithm`` starts from: its alias row, or its first
    row on ``engine`` (the first row overall when ``engine`` is None)."""
    for path in PATHS:
        if path.alias == algorithm:
            if engine not in (None, path.engine):
                raise ConfigurationError(
                    f"algorithm {algorithm!r} implies engine="
                    f"{path.engine!r}; got engine={engine!r} — use "
                    f"algorithm {path.algorithm!r} to pick an engine "
                    "explicitly"
                )
            return path
    rows = [path for path in PATHS if path.algorithm == algorithm]
    if not rows:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; options: {list(ALGORITHMS)}"
        )
    if engine is None or rows[0].engine is None:
        return rows[0]
    for path in rows:
        if path.engine == engine:
            return path
    raise ConfigurationError(
        f"unknown engine {engine!r} for algorithm {algorithm!r}; options: "
        f"{list(dict.fromkeys(path.engine for path in rows))}"
    )


def _unset(value: object, default: object) -> bool:
    """Whether ``value`` leaves a field at ``default`` (an off default —
    ``None`` or ``()`` — is also left by ``False`` or an empty list)."""
    if default is None or default == ():
        return value is None or value is False or value == () or value == []
    return value == default


def resolve(
    algorithm: str,
    values: "dict[str, object]",
    defaults: "dict[str, object] | None" = None,
) -> Path:
    """The row that runs ``algorithm`` with option ``values``.

    Every option is checked against that row; ``defaults`` (a config's
    field defaults) marks the values a caller left alone, which any row
    may ignore. Raises :class:`ConfigurationError` naming the option and
    the algorithm for anything the row does not take.
    """
    path = select(algorithm, values.get("engine"))  # type: ignore[arg-type]
    mode = values.get("mode", path.modes[0] if path.modes else None)
    siblings = [
        p for p in PATHS
        if p.algorithm == path.algorithm and p.engine == path.engine
    ]
    if path.modes and mode not in path.modes:
        matches = [p for p in siblings if mode in p.modes]
        if not matches:
            raise ConfigurationError(
                f"mode={mode!r} has no meaning for algorithm {algorithm!r} "
                f"on engine={path.engine!r}; it runs mode "
                f"{[m for p in siblings for m in p.modes]}"
            )
        path = matches[0]
    where = f"algorithm {algorithm!r}"
    if path.engine is not None:
        where += f" on engine={path.engine!r}"
    if len(siblings) > 1:
        where += f" with mode={mode!r}"
    for name, value in values.items():
        if path.takes(name) or (
            defaults is not None
            and name in defaults
            and _unset(value, defaults[name])
        ):
            continue
        takers = [
            p.engine for p in PATHS
            if p.algorithm == path.algorithm and p.takes(name)
        ]
        if not takers:
            raise ConfigurationError(
                f"algorithm {algorithm!r} takes no option {name!r}"
            )
        raise ConfigurationError(
            f"{name}={value!r} has no meaning for {where}; only engine "
            f"{' or '.join(map(repr, dict.fromkeys(takers)))} takes it"
        )
    backend = values.get("backend")
    if path.backends and backend is not None and backend not in path.backends:
        if backend not in BACKEND_NAMES:
            resolve_backend(backend)  # type: ignore[arg-type]  # raises: unknown name
        raise ConfigurationError(
            f"backend={backend!r} selects a flat-kernel backend that {where} "
            f"does not run; it runs {list(path.backends)} (see the support "
            "matrix in repro.sim.kernels)"
        )
    if path.observers == "recorders" and values.get("observers"):
        from repro.sim.tracing import recorders_from_observers

        recorders_from_observers(values["observers"], path.engine)
    return path


def run(algorithm: str, graph: object, config: Any, **extra: object) -> Any:
    """Run a protocol config on its row.

    One round budget (``fixed_rounds`` becomes a non-strict
    ``max_rounds``), one tracer (the fleet's is the coordinator lane)
    and one telemetry finish serve every engine; ``extra`` carries the
    runner keywords that are not config fields (``assignment``,
    ``fault_plan``).
    """
    defaults = {
        f.name: (
            f.default_factory()  # type: ignore[misc]
            if f.default is dataclasses.MISSING
            else f.default
        )
        for f in dataclasses.fields(config)
    }
    values = {name: getattr(config, name) for name in defaults}
    path = resolve(
        algorithm, {**values, **extra}, {**defaults, **dict.fromkeys(extra)}
    )
    if config.fixed_rounds is not None:
        config = dataclasses.replace(
            config, max_rounds=config.fixed_rounds, strict=False,
            fixed_rounds=None,
        )
    tracer = run_tracer(
        config.telemetry, config.trace_out,
        lane="coordinator" if path.fleet else "main",
    )
    extra = {name: value for name, value in extra.items() if value is not None}
    result = path.load()(graph, config, tracer, **extra)
    finish_run_telemetry(tracer, config.trace_out, result.stats)
    return result
