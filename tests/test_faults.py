"""Fault injection: every recovery path, verified bit-identical.

The fault-tolerance contract of the mp engine
(:mod:`repro.sim.mp_engine`): under any single scripted failure from
:class:`repro.sim.faults.FaultPlan` — a worker killed at either protocol
point, a dropped batch, a delayed batch, a stalled worker — a recovered
run produces *exactly* the result of a fault-free
``FlatOneToManyEngine(mode="lockstep")`` run: same coreness, executed
rounds, per-round send counts, per-host message counts and Figure-5
``estimates_sent``. Recovery telemetry lands in
``stats.extra["recoveries"]``.

The kill grid runs rounds × kill-points × both communication policies
under ``fork`` (cheap, identical semantics); a representative slice
re-proves ``spawn`` (what deployments use) and the numpy backend. The
abort path — recovery disabled, or failures recovery does not cover —
must reap the whole fleet and raise the documented loud errors
(:class:`~repro.errors.FleetTimeoutError` naming the stuck round and the
last barrier timestamp).
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.core.api import decompose
from repro.core.one_to_many import OneToManyConfig, run_one_to_many
from repro.errors import ConfigurationError, FleetTimeoutError
from repro.graph import generators as gen
from repro.sim.faults import KILL_EXIT_CODE, Fault, FaultPlan, WorkerFaults
from repro.sim.kernels import numpy_available
from repro.sim.mp_engine import (
    MultiProcessOneToManyEngine,
    default_reply_timeout,
)


def _graph():
    return gen.preferential_attachment_graph(300, 3, seed=1)


@pytest.fixture(scope="module")
def graph():
    return _graph()


@pytest.fixture(scope="module")
def flat_reference(graph):
    """Fault-free flat lockstep runs, one per communication policy."""
    return {
        communication: run_one_to_many(
            graph,
            OneToManyConfig(
                engine="flat", mode="lockstep", num_hosts=4,
                communication=communication,
            ),
        )
        for communication in ("broadcast", "p2p")
    }


def _mp_fault(graph, plan, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_one_to_many(
            graph,
            OneToManyConfig(
                engine="mp", mode="lockstep", num_hosts=4,
                mp_start_method=kw.pop("start_method", "fork"), **kw,
            ),
            fault_plan=plan,
        )


def assert_bit_identical(faulty, reference) -> None:
    """The recovered run is indistinguishable from a fault-free one."""
    assert faulty.coreness == reference.coreness
    sf, sr = faulty.stats, reference.stats
    assert sf.rounds_executed == sr.rounds_executed
    assert sf.execution_time == sr.execution_time
    assert sf.sends_per_round == sr.sends_per_round
    assert sf.sent_per_process == sr.sent_per_process
    assert sf.converged == sr.converged
    assert sf.extra["estimates_sent_total"] == sr.extra["estimates_sent_total"]


class TestPlanValidation:
    """Malformed plans fail at construction, in the parent process."""

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            Fault(kind="meteor", worker=0, round=1)

    def test_rounds_are_one_based(self):
        with pytest.raises(ConfigurationError, match="1-based"):
            Fault.kill(0, round=0)

    def test_unknown_kill_point(self):
        with pytest.raises(ConfigurationError, match="kill point"):
            Fault.kill(0, round=1, when="mid_put")

    def test_drop_needs_dest(self):
        with pytest.raises(ConfigurationError, match="destination"):
            Fault(kind="drop_batch", worker=0, round=2)

    def test_self_send_rejected(self):
        with pytest.raises(ConfigurationError, match="never sends to itself"):
            Fault.drop_batch(1, round=2, dest=1)

    @pytest.mark.parametrize("seconds", (0, -1.0))
    def test_delay_needs_positive_seconds(self, seconds):
        with pytest.raises(ConfigurationError, match="seconds > 0"):
            Fault.delay_batch(0, round=2, dest=1, seconds=seconds)

    def test_plan_rejects_non_faults(self):
        with pytest.raises(ConfigurationError, match="Fault instances"):
            FaultPlan(["kill 0"])

    def test_validate_for_fleet_size(self):
        plan = FaultPlan([Fault.kill(7, round=2)])
        with pytest.raises(ConfigurationError, match="out of range"):
            plan.validate_for(4)
        plan.validate_for(8)  # in range: no raise

    def test_engine_validates_plan_against_fleet(self, graph):
        with pytest.raises(ConfigurationError, match="out of range"):
            _mp_fault(graph, FaultPlan([Fault.kill(9, round=2)]))

    def test_plan_is_picklable_per_worker(self):
        import pickle

        plan = FaultPlan(
            [Fault.kill(1, 3), Fault.drop_batch(1, 4, dest=0)]
        )
        mine = plan.for_worker(1)
        clone = pickle.loads(pickle.dumps(mine))
        assert clone.kill_now(3, "start")
        assert plan.for_worker(0) is None

    def test_faults_fire_at_most_once(self):
        wf = WorkerFaults([Fault.kill(0, 2)])
        assert wf.kill_now(2, "start")
        assert not wf.kill_now(2, "start")

    def test_kills_sorted_by_round(self):
        plan = FaultPlan([Fault.kill(0, 9), Fault.kill(1, 2)])
        assert [f.round for f in plan.kills()] == [2, 9]


class TestKillRecovery:
    """Crash-stop kills at every protocol point replay bit-identically."""

    @pytest.mark.parametrize("communication", ("broadcast", "p2p"))
    @pytest.mark.parametrize("when", ("start", "after_emit"))
    @pytest.mark.parametrize("round", (1, 5))
    def test_kill_grid(self, graph, flat_reference, round, when, communication):
        plan = FaultPlan([Fault.kill(2, round, when=when)])
        run = _mp_fault(graph, plan, communication=communication)
        assert_bit_identical(run, flat_reference[communication])
        events = run.stats.extra["recoveries"]
        assert len(events) == 1
        assert events[0]["worker"] == 2
        assert events[0]["round"] == round
        assert events[0]["restored_from_round"] == 0

    def test_kill_under_spawn(self, graph, flat_reference):
        run = _mp_fault(
            graph, FaultPlan([Fault.kill(1, 3, when="after_emit")]),
            start_method="spawn",
        )
        assert_bit_identical(run, flat_reference["broadcast"])
        assert len(run.stats.extra["recoveries"]) == 1

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_kill_with_numpy_workers(self, graph, flat_reference):
        run = _mp_fault(
            graph, FaultPlan([Fault.kill(0, 4)]), backend="numpy",
        )
        assert_bit_identical(run, flat_reference["broadcast"])
        assert len(run.stats.extra["recoveries"]) == 1

    def test_two_kills_in_different_rounds(self, graph, flat_reference):
        """Recovery is per-barrier: two single losses both recover."""
        plan = FaultPlan([Fault.kill(0, 3), Fault.kill(3, 6)])
        run = _mp_fault(graph, plan)
        assert_bit_identical(run, flat_reference["broadcast"])
        events = run.stats.extra["recoveries"]
        assert [e["worker"] for e in events] == [0, 3]

    def test_kill_through_decompose(self, graph, flat_reference):
        """``decompose`` hands a plan to the fleet as the runner does."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = decompose(
                graph, "one-to-many-mp", num_hosts=4,
                mp_start_method="fork",
                fault_plan=FaultPlan([Fault.kill(2, 3)]),
            )
        assert_bit_identical(run, flat_reference["broadcast"])
        (event,) = run.stats.extra["recoveries"]
        assert (event["worker"], event["round"]) == (2, 3)

    def test_recovery_event_telemetry(self, graph):
        run = _mp_fault(graph, FaultPlan([Fault.kill(2, 5)]))
        (event,) = run.stats.extra["recoveries"]
        assert event["replayed_rounds"] == 4  # rounds 1..4, no checkpoint
        assert event["resent_batches"] > 0
        assert event["resent_bytes"] > 0
        assert event["seconds"] > 0
        assert f"exitcode={KILL_EXIT_CODE}" in event["reason"]


class TestTransportFaults:
    """Lost, late and slow — the non-crash failure modes."""

    def test_dropped_batch_recovers_via_timeout(self, graph, flat_reference):
        """The receiver wedges on mail that never comes; the detector
        fires, the wedged worker is recovered, and the sender's resend
        buffer re-delivers the batch the transport lost."""
        plan = FaultPlan([Fault.drop_batch(0, 4, dest=3)])
        run = _mp_fault(graph, plan, mp_reply_timeout=3.0)
        assert_bit_identical(run, flat_reference["broadcast"])
        (event,) = run.stats.extra["recoveries"]
        assert event["worker"] == 3  # the *receiver* is what wedges
        assert "alive=True" in event["reason"]

    def test_wedged_worker_holding_its_inbox_lock_recovers(
        self, graph, flat_reference
    ):
        """A terminate that lands while the wedged worker holds its
        inbox's reader lock must not starve the replacement, which
        reuses that queue. Workers wait for mail in a blocking
        ``get()``, which holds the lock for the whole wait, so the
        wedged receiver is always terminated holding it. The receiver
        carries a plan of its own through a 1 ms stall; replacements
        carry none."""
        plan = FaultPlan([
            Fault.drop_batch(0, 4, dest=3), Fault.slow(3, 1, seconds=0.001),
        ])
        run = _mp_fault(graph, plan, mp_reply_timeout=3.0)
        assert_bit_identical(run, flat_reference["broadcast"])
        (event,) = run.stats.extra["recoveries"]
        assert event["worker"] == 3

    def test_delayed_batch_needs_no_recovery(self, graph, flat_reference):
        plan = FaultPlan([Fault.delay_batch(0, 4, dest=3, seconds=0.5)])
        run = _mp_fault(graph, plan)
        assert_bit_identical(run, flat_reference["broadcast"])
        assert run.stats.extra["recoveries"] == []

    def test_slow_below_timeout_needs_no_recovery(self, graph, flat_reference):
        plan = FaultPlan([Fault.slow(2, 5, seconds=0.5)])
        run = _mp_fault(graph, plan, mp_reply_timeout=30.0)
        assert_bit_identical(run, flat_reference["broadcast"])
        assert run.stats.extra["recoveries"] == []

    def test_slow_past_timeout_is_recovered(self, graph, flat_reference):
        plan = FaultPlan([Fault.slow(2, 5, seconds=5.0)])
        run = _mp_fault(graph, plan, mp_reply_timeout=1.5)
        assert_bit_identical(run, flat_reference["broadcast"])
        (event,) = run.stats.extra["recoveries"]
        assert event["worker"] == 2


class TestAbortPath:
    """With recovery off (or out of scope), the failure detector must
    reap the *entire* fleet and drain the queues before raising — a
    crashed run may not leak processes or feeder threads."""

    def _engine(self, graph, plan, **kw):
        from repro.core.assignment import assign
        from repro.graph.csr import CSRGraph
        from repro.graph.sharded import ShardedCSR

        sharded = ShardedCSR(
            CSRGraph.from_graph(graph), assign(graph, 4, policy="modulo")
        )
        return MultiProcessOneToManyEngine(
            sharded, start_method="fork", fault_plan=plan, recover=False,
            **kw,
        )

    def test_killed_worker_aborts_and_reaps_fleet(self, graph):
        engine = self._engine(
            graph, FaultPlan([Fault.kill(2, 5)]), reply_timeout=30.0
        )
        with pytest.raises(RuntimeError, match="round 5") as excinfo:
            engine.run()
        assert "Recovery was not attempted" in str(excinfo.value)
        # the satellite contract: every spawned process joined, none
        # alive — including the three survivors that did nothing wrong
        assert len(engine._all_procs) == 4
        assert all(not proc.is_alive() for proc in engine._all_procs)

    def test_wedged_fleet_raises_timeout_with_round_and_timestamp(self, graph):
        engine = self._engine(
            graph,
            FaultPlan([Fault.drop_batch(0, 4, dest=3)]),
            reply_timeout=2.0,
        )
        with pytest.raises(FleetTimeoutError) as excinfo:
            engine.run()
        message = str(excinfo.value)
        assert "round 5" in message  # mail dropped in round 4 wedges round 5
        assert "Last barrier completed at" in message
        assert isinstance(excinfo.value, TimeoutError)
        assert all(not proc.is_alive() for proc in engine._all_procs)

    def test_simultaneous_double_loss_is_out_of_scope(self, graph):
        """Two workers lost at the same barrier: documented as
        unrecoverable in flight — loud abort even with recovery on."""
        from repro.core.assignment import assign
        from repro.graph.csr import CSRGraph
        from repro.graph.sharded import ShardedCSR

        sharded = ShardedCSR(
            CSRGraph.from_graph(graph), assign(graph, 4, policy="modulo")
        )
        engine = MultiProcessOneToManyEngine(
            sharded, start_method="fork",
            fault_plan=FaultPlan([Fault.kill(1, 4), Fault.kill(2, 4)]),
            reply_timeout=30.0,
        )
        with pytest.raises(RuntimeError, match="more than one worker"):
            engine.run()
        assert all(not proc.is_alive() for proc in engine._all_procs)


#: A script without a ``__main__`` guard: under spawn and forkserver
#: every worker re-runs it and dies while bootstrapping. The shard
#: payload is far larger than a pipe buffer.
GUARDLESS_SCRIPT = """
import multiprocessing
import sys

from repro import decompose
from repro.graph import generators as gen

graph = gen.erdos_renyi_graph(3000, 10 / 3000, seed=1)
try:
    decompose(
        graph, "one-to-many-mp", num_hosts=2,
        mp_start_method=sys.argv[1], mp_reply_timeout=5.0,
    )
finally:
    print("live children:", len(multiprocessing.active_children()),
          file=sys.stderr)
"""


class TestBootstrapDeath:
    """A worker that dies before its first reply fails the run within
    the reply timeout: spawn arguments carry only small handles, and the
    shard follows over the control pipe under the failure detector."""

    @pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
    def test_guardless_script_exits_nonzero(self, tmp_path, start_method):
        script = tmp_path / "guardless.py"
        script.write_text(GUARDLESS_SCRIPT)
        shm = Path("/dev/shm")
        before = set(os.listdir(shm)) if shm.is_dir() else set()
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", str(script), start_method],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode != 0
        assert "mp worker 0" in proc.stderr
        assert "live children: 0" in proc.stderr
        after = set(os.listdir(shm)) if shm.is_dir() else set()
        assert after <= before


class TestReplyTimeout:
    """The round-aware failure-detector default (satellite)."""

    def test_default_scales_with_nodes_per_worker(self):
        small = default_reply_timeout(1_000, 4)
        large = default_reply_timeout(1_000_000, 4)
        assert small >= 60.0
        assert large > small
        # more workers -> less per-worker load -> smaller timeout
        assert default_reply_timeout(1_000_000, 16) < large

    def test_engine_derives_default_from_load(self, graph):
        from repro.core.assignment import assign
        from repro.graph.csr import CSRGraph
        from repro.graph.sharded import ShardedCSR

        csr = CSRGraph.from_graph(graph)
        sharded = ShardedCSR(csr, assign(graph, 4, policy="modulo"))
        engine = MultiProcessOneToManyEngine(sharded, start_method="fork")
        assert engine.reply_timeout == pytest.approx(
            default_reply_timeout(csr.num_nodes, 4)
        )

    def test_explicit_timeout_wins(self, graph):
        from repro.core.assignment import assign
        from repro.graph.csr import CSRGraph
        from repro.graph.sharded import ShardedCSR

        sharded = ShardedCSR(
            CSRGraph.from_graph(graph), assign(graph, 4, policy="modulo")
        )
        engine = MultiProcessOneToManyEngine(
            sharded, start_method="fork", reply_timeout=123.0
        )
        assert engine.reply_timeout == 123.0


class TestRunnerRejections:
    def test_fault_plan_type_checked(self, graph):
        with pytest.raises(ConfigurationError, match="FaultPlan"):
            _mp_fault(graph, plan="kill everything")

    def test_decompose_checks_the_fault_plan_type(self, graph):
        with pytest.raises(ConfigurationError, match="FaultPlan"):
            decompose(
                graph, "one-to-many-mp", num_hosts=4,
                mp_start_method="fork", fault_plan="kill everything",
            )

    def test_checkpoint_type_checked(self, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ConfigurationError, match="CheckpointPolicy"):
                run_one_to_many(
                    graph,
                    OneToManyConfig(
                        engine="mp", mode="lockstep", num_hosts=4,
                        mp_start_method="fork", checkpoint="/tmp/nope",
                    ),
                )
