"""Meaningless configuration combinations fail fast.

The async engine has no rounds and no activation modes: it used to
silently ignore ``fixed_rounds``, ``mode`` and ``observers``, returning
results that looked like they honoured those knobs. Both protocol
runners now reject such combinations with :class:`ConfigurationError`;
similarly the round/flat engines reject the async-only ``latency``.

The ``backend`` knob is validated the same way, *in the config layer*:
unknown backend names, ``backend="numpy"`` when numpy is not
importable, a non-default backend on the object engines (which run no
kernels), and the one unsupported flat combination (numpy × one-to-one
peersim) are all rejected before any engine work starts.
"""

from __future__ import annotations

import pytest

import repro.sim.kernels as kernels
from repro.core.one_to_many import OneToManyConfig, run_one_to_many
from repro.core.one_to_one import OneToOneConfig, run_one_to_one
from repro.errors import ConfigurationError
from repro.graph import generators as gen


@pytest.fixture()
def small_graph():
    return gen.erdos_renyi_graph(30, 0.15, seed=1)


class TestOneToOneAsyncCombos:
    def test_async_rejects_fixed_rounds(self, small_graph):
        with pytest.raises(ConfigurationError, match="fixed_rounds"):
            run_one_to_one(
                small_graph,
                OneToOneConfig(engine="async", fixed_rounds=5),
            )

    def test_async_rejects_lockstep_mode(self, small_graph):
        with pytest.raises(ConfigurationError, match="lockstep"):
            run_one_to_one(
                small_graph,
                OneToOneConfig(engine="async", mode="lockstep"),
            )

    def test_async_rejects_observers(self, small_graph):
        with pytest.raises(ConfigurationError, match="observers"):
            run_one_to_one(
                small_graph,
                OneToOneConfig(
                    engine="async", observers=(lambda r, e: None,)
                ),
            )

    def test_async_with_default_mode_still_runs(self, small_graph):
        result = run_one_to_one(
            small_graph, OneToOneConfig(engine="async", seed=3)
        )
        assert result.stats.converged

    @pytest.mark.parametrize("engine", ["round", "flat"])
    def test_round_engines_reject_latency(self, small_graph, engine):
        with pytest.raises(ConfigurationError, match="latency"):
            run_one_to_one(
                small_graph,
                OneToOneConfig(engine=engine, latency=lambda rng: 0.5),
            )

    def test_unknown_engine_still_rejected(self, small_graph):
        with pytest.raises(ConfigurationError):
            run_one_to_one(small_graph, OneToOneConfig(engine="warp"))

    def test_flat_rejects_unknown_mode(self, small_graph):
        with pytest.raises(ConfigurationError):
            run_one_to_one(
                small_graph, OneToOneConfig(engine="flat", mode="warp")
            )


class TestOneToManyAsyncCombos:
    def test_async_rejects_fixed_rounds(self, small_graph):
        with pytest.raises(ConfigurationError, match="fixed_rounds"):
            run_one_to_many(
                small_graph,
                OneToManyConfig(engine="async", fixed_rounds=5),
            )

    def test_async_rejects_lockstep_mode(self, small_graph):
        with pytest.raises(ConfigurationError, match="lockstep"):
            run_one_to_many(
                small_graph,
                OneToManyConfig(engine="async", mode="lockstep"),
            )

    def test_async_rejects_observers(self, small_graph):
        with pytest.raises(ConfigurationError, match="observers"):
            run_one_to_many(
                small_graph,
                OneToManyConfig(
                    engine="async", observers=(lambda r, e: None,)
                ),
            )

    def test_async_with_default_mode_still_runs(self, small_graph):
        result = run_one_to_many(
            small_graph, OneToManyConfig(engine="async", num_hosts=3, seed=2)
        )
        assert result.stats.converged


class TestOptionsThePathDoesNotTake:
    """Every option a path does not take raises a ConfigurationError
    naming the option and the algorithm — never a TypeError, never a
    silent drop."""

    @pytest.mark.parametrize(
        "algorithm,option,value",
        [
            ("bz", "backend", "numpy"),
            ("bz", "num_hosts", 9),
            ("bz", "bogus", 1),
            ("peeling", "seed", 1),
            ("hindex", "seed", 4),
            ("hindex", "engine", "flat"),
            ("pregel", "mode", "lockstep"),
            ("pregel", "communication", "p2p"),
            ("one-to-one", "num_hosts", 4),
            ("one-to-one", "mp_transport", "shm"),
            ("one-to-one-flat", "policy", "block"),
            ("one-to-many", "latency", 0.5),
            ("one-to-many-flat", "async_max_time", 5.0),
            ("one-to-many-mp", "num_workers", 2),
        ],
    )
    def test_rejected_by_name(self, small_graph, algorithm, option, value):
        from repro.core.api import decompose

        with pytest.raises(ConfigurationError, match=option) as excinfo:
            decompose(small_graph, algorithm, **{option: value})
        assert repr(algorithm) in str(excinfo.value)


class TestBackendValidation:
    """The ``backend`` knob is validated in the config layer."""

    def test_unknown_backend_rejected(self, small_graph):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            run_one_to_one(
                small_graph, OneToOneConfig(engine="flat", backend="warp")
            )

    def test_unknown_backend_rejected_one_to_many(self, small_graph):
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            run_one_to_many(
                small_graph, OneToManyConfig(engine="flat", backend="warp")
            )

    @pytest.mark.parametrize("engine", ["round", "async"])
    def test_object_engines_reject_backend(self, small_graph, engine):
        with pytest.raises(ConfigurationError, match="flat-kernel backend"):
            run_one_to_one(
                small_graph, OneToOneConfig(engine=engine, backend="numpy")
            )

    @pytest.mark.parametrize("engine", ["round", "async"])
    def test_object_engines_reject_backend_one_to_many(
        self, small_graph, engine
    ):
        with pytest.raises(ConfigurationError, match="flat-kernel backend"):
            run_one_to_many(
                small_graph, OneToManyConfig(engine=engine, backend="numpy")
            )

    def test_pregel_object_engine_rejects_backend(self, small_graph):
        from repro.pregel.kcore import run_pregel_kcore

        with pytest.raises(ConfigurationError, match="flat-kernel backend"):
            run_pregel_kcore(small_graph, backend="numpy")

    def test_pregel_unknown_engine_rejected(self, small_graph):
        from repro.pregel.kcore import run_pregel_kcore

        with pytest.raises(ConfigurationError, match="unknown pregel engine"):
            run_pregel_kcore(small_graph, engine="warp")

    def test_peersim_flat_rejects_numpy(self, small_graph):
        # the one unsupported flat combination (see the support
        # matrix); in a stdlib-only environment the missing-numpy
        # rejection legitimately fires first
        with pytest.raises(ConfigurationError, match="peersim|requires numpy"):
            run_one_to_one(
                small_graph,
                OneToOneConfig(
                    engine="flat", mode="peersim", backend="numpy"
                ),
            )

    def test_numpy_rejected_when_not_importable(self, small_graph, monkeypatch):
        # simulate a stdlib-only environment regardless of what this
        # one has installed: resolve_backend consults numpy_available()
        monkeypatch.setattr(kernels, "numpy_available", lambda: False)
        with pytest.raises(ConfigurationError, match="requires numpy"):
            run_one_to_one(
                small_graph,
                OneToOneConfig(
                    engine="flat", mode="lockstep", backend="numpy"
                ),
            )
        with pytest.raises(ConfigurationError, match="requires numpy"):
            run_one_to_many(
                small_graph, OneToManyConfig(engine="flat", backend="numpy")
            )

    def test_available_backends_shrink_without_numpy(self, monkeypatch):
        monkeypatch.setattr(kernels, "numpy_available", lambda: False)
        assert kernels.available_backends() == ("stdlib",)

    def test_explicit_stdlib_backend_runs_everywhere(self, small_graph):
        # the default name is always accepted, object engines included
        round_result = run_one_to_one(
            small_graph, OneToOneConfig(engine="round", backend="stdlib")
        )
        flat_result = run_one_to_one(
            small_graph,
            OneToOneConfig(engine="flat", mode="peersim", backend="stdlib"),
        )
        assert round_result.coreness == flat_result.coreness

    def test_cli_backend_rejected_for_sequential_baselines(self, tmp_path):
        from repro.cli import main

        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n")
        with pytest.raises(ConfigurationError, match="--backend"):
            main(
                [
                    "decompose",
                    "--edges",
                    str(edges),
                    "--algorithm",
                    "bz",
                    "--backend",
                    "numpy",
                ]
            )

    @pytest.mark.parametrize(
        "flag,value,algorithm",
        [
            ("--engine", "async", "hindex"),
            ("--engine", "flat", "bz"),
            ("--mode", "peersim", "hindex"),
            ("--mode", "lockstep", "pregel"),
            ("--hosts", "8", "one-to-one"),
            ("--policy", "block", "one-to-one"),
            ("--communication", "p2p", "one-to-one-flat"),
            ("--hosts", "8", "bz"),
            ("--policy", "block", "peeling"),
            ("--communication", "p2p", "hindex"),
            ("--policy", "block", "pregel"),
            ("--communication", "p2p", "pregel"),
        ],
    )
    def test_cli_rejects_engine_and_mode_on_nonconsumers(
        self, tmp_path, flag, value, algorithm
    ):
        # the CLI must not silently drop a flag the user typed: every
        # algorithm path that cannot honour a flag rejects it by name
        from repro.cli import main

        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n")
        with pytest.raises(ConfigurationError, match=flag) as excinfo:
            main(
                [
                    "decompose",
                    "--edges",
                    str(edges),
                    "--algorithm",
                    algorithm,
                    flag,
                    value,
                ]
            )
        assert repr(algorithm) in str(excinfo.value)
