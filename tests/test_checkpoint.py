"""Checkpointing: atomic commits, loud verification, exact resume.

Three contracts from :mod:`repro.sim.checkpoint`:

* **atomicity** — a checkpoint directory holds either a complete,
  verified checkpoint or none: stray ``.tmp`` files are never read, a
  checksum or size mismatch refuses to restore, and the manifest rename
  is the single commit point;
* **versioning** — the manifest records
  :data:`~repro.sim.checkpoint.CHECKPOINT_FORMAT_VERSION` and a
  mismatched load fails loudly in *both* skew directions (newer file /
  older code and vice versa);
* **exact resume** — a fleet restarted from a checkpoint
  (:func:`repro.core.one_to_many.resume_from_checkpoint`, the
  coordinator-death path) finishes bit-identical to a never-interrupted
  run: coreness, rounds, per-round send counts, per-host messages and
  Figure-5 ``estimates_sent``, because cumulative counters are restored
  from the manifest and in-flight mail was drained into the snapshots.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.core.one_to_many import (
    OneToManyConfig,
    resume_from_checkpoint,
    run_one_to_many,
)
from repro.errors import (
    CheckpointError,
    CheckpointFormatError,
    ConfigurationError,
)
from repro.graph import generators as gen
from repro.sim.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointPolicy,
    CheckpointWriter,
    load_checkpoint,
)
from repro.sim.faults import Fault, FaultPlan


@pytest.fixture(scope="module")
def graph():
    return gen.preferential_attachment_graph(300, 3, seed=1)


@pytest.fixture(scope="module")
def flat_reference(graph):
    return run_one_to_many(
        graph, OneToManyConfig(engine="flat", mode="lockstep", num_hosts=4)
    )


def _mp_checkpointed(graph, dir, every=2, **kw):
    fault_plan = kw.pop("fault_plan", None)
    start_method = kw.pop("start_method", "fork")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return run_one_to_many(
            graph,
            OneToManyConfig(
                engine="mp", mode="lockstep", num_hosts=4,
                mp_start_method=start_method,
                checkpoint=CheckpointPolicy(every_n_rounds=every, dir=str(dir)),
                **kw,
            ),
            fault_plan=fault_plan,
        )


@pytest.fixture()
def committed_dir(graph, tmp_path):
    """A directory holding a real committed checkpoint (truncated run)."""
    dir = tmp_path / "ck"
    _mp_checkpointed(graph, dir, every=2, fixed_rounds=7)
    return dir


class TestPolicyValidation:
    @pytest.mark.parametrize("every", (0, -3))
    def test_cadence_must_be_positive(self, every):
        with pytest.raises(ConfigurationError, match=">= 1"):
            CheckpointPolicy(every_n_rounds=every, dir="/tmp/x")

    @pytest.mark.parametrize("every", (True, 2.0, "2"))
    def test_cadence_must_be_an_int(self, every):
        with pytest.raises(ConfigurationError, match="int"):
            CheckpointPolicy(every_n_rounds=every, dir="/tmp/x")

    @pytest.mark.parametrize("dir", ("", None, 7))
    def test_dir_must_be_a_path(self, dir):
        with pytest.raises(ConfigurationError, match="non-empty path"):
            CheckpointPolicy(every_n_rounds=2, dir=dir)

    def test_due_schedule(self):
        policy = CheckpointPolicy(every_n_rounds=3, dir="/tmp/x")
        assert [r for r in range(1, 10) if policy.due(r)] == [3, 6, 9]

    @pytest.mark.parametrize("engine", ("round", "flat", "async"))
    def test_checkpoint_is_an_mp_only_knob(self, graph, engine):
        """The in-process engines cannot lose a worker; silently
        ignoring the knob would fake durability the run doesn't have."""
        config = OneToManyConfig(
            engine=engine,
            mode="lockstep" if engine != "async" else "peersim",
            checkpoint=CheckpointPolicy(every_n_rounds=2, dir="/tmp/x"),
        )
        with pytest.raises(ConfigurationError, match="checkpoint"):
            run_one_to_many(graph, config)


class TestWriterAndLoader:
    def test_commit_requires_fleet(self, tmp_path):
        writer = CheckpointWriter(str(tmp_path))
        with pytest.raises(CheckpointError, match="write_fleet"):
            writer.commit(2, [b"x"], {}, {})

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest.json is missing"):
            load_checkpoint(str(tmp_path))

    def test_torn_write_is_invisible(self, tmp_path):
        """A crash mid-write leaves only .tmp files — never read."""
        (tmp_path / "manifest.json.tmp").write_bytes(b"{half a manif")
        (tmp_path / "state-0.pkl.tmp").write_bytes(b"\x80partial")
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(str(tmp_path))

    def test_manifest_must_be_json(self, tmp_path):
        (tmp_path / "manifest.json").write_bytes(b"not json at all")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(str(tmp_path))

    def test_committed_checkpoint_loads_and_verifies(self, committed_dir):
        ckpt = load_checkpoint(str(committed_dir))
        assert ckpt.round == 6  # every 2, truncated at round 7
        assert len(ckpt.worker_blobs) == 4
        assert ckpt.config["num_hosts"] == 4
        assert ckpt.config["algorithm"].endswith("-mp")
        assert ckpt.coordinator["rnd"] == 6

    def test_corrupt_state_file_refuses_to_restore(self, committed_dir):
        path = committed_dir / "state-1.pkl"
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF  # same size, different bits
        path.write_bytes(bytes(payload))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(str(committed_dir))

    def test_truncated_fleet_file_refuses_to_restore(self, committed_dir):
        path = committed_dir / "fleet.pkl"
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(str(committed_dir))

    def test_missing_state_file(self, committed_dir):
        os.remove(committed_dir / "state-2.pkl")
        with pytest.raises(CheckpointError, match="state-2.pkl"):
            load_checkpoint(str(committed_dir))


class TestVersionSkew:
    """The satellite: format-version mismatch fails loudly both ways."""

    def _rewrite_version(self, dir, version):
        path = dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["format_version"] = version
        path.write_text(json.dumps(manifest))

    def test_newer_file_older_code(self, committed_dir):
        self._rewrite_version(committed_dir, CHECKPOINT_FORMAT_VERSION + 1)
        with pytest.raises(CheckpointFormatError, match="newer library"):
            load_checkpoint(str(committed_dir))

    def test_older_file_newer_code(self, committed_dir):
        self._rewrite_version(committed_dir, CHECKPOINT_FORMAT_VERSION - 1)
        with pytest.raises(CheckpointFormatError, match="older"):
            load_checkpoint(str(committed_dir))

    def test_garbage_version(self, committed_dir):
        self._rewrite_version(committed_dir, "v1.0")
        with pytest.raises(CheckpointFormatError, match="unrecognised"):
            load_checkpoint(str(committed_dir))

    def test_resume_refuses_skewed_checkpoint(self, committed_dir):
        self._rewrite_version(committed_dir, CHECKPOINT_FORMAT_VERSION + 1)
        with pytest.raises(CheckpointFormatError):
            resume_from_checkpoint(str(committed_dir))

    def test_resume_refuses_version_1_fleet(self, committed_dir):
        """Version-1 fleets pickled per-node delivery lists that today's
        HostShard cannot adopt: the version check must refuse them
        before anything is unpickled."""
        self._rewrite_version(committed_dir, 1)
        with pytest.raises(CheckpointFormatError, match="older"):
            resume_from_checkpoint(str(committed_dir))


class TestResume:
    """Whole-fleet restart (the coordinator-death path) is exact."""

    @pytest.mark.parametrize("communication", ("broadcast", "p2p"))
    def test_roundtrip_bit_identical(self, graph, tmp_path, communication):
        reference = run_one_to_many(
            graph,
            OneToManyConfig(
                engine="flat", mode="lockstep", num_hosts=4,
                communication=communication,
            ),
        )
        dir = tmp_path / "ck"
        partial = _mp_checkpointed(
            graph, dir, every=2, fixed_rounds=7, communication=communication
        )
        assert not partial.stats.converged  # genuinely interrupted
        resumed = resume_from_checkpoint(
            str(dir), max_rounds=1_000_000, strict=True
        )
        assert resumed.coreness == reference.coreness
        sf, sr = resumed.stats, reference.stats
        assert sf.rounds_executed == sr.rounds_executed
        assert sf.execution_time == sr.execution_time
        assert sf.sends_per_round == sr.sends_per_round
        assert sf.sent_per_process == sr.sent_per_process
        assert (
            sf.extra["estimates_sent_total"]
            == sr.extra["estimates_sent_total"]
        )
        assert sf.extra["resumed_from_round"] == 6
        assert resumed.algorithm == partial.algorithm

    def test_roundtrip_under_spawn(self, graph, tmp_path, flat_reference):
        dir = tmp_path / "ck"
        _mp_checkpointed(
            graph, dir, every=3, fixed_rounds=8, start_method="spawn"
        )
        resumed = resume_from_checkpoint(
            str(dir), max_rounds=1_000_000, strict=True
        )
        assert resumed.coreness == flat_reference.coreness
        assert (
            resumed.stats.rounds_executed
            == flat_reference.stats.rounds_executed
        )
        assert resumed.stats.extra["resumed_from_round"] == 6

    def test_resume_after_completion_is_idempotent(self, graph, tmp_path,
                                                   flat_reference):
        """Resuming a checkpoint taken at quiescence just re-gathers."""
        dir = tmp_path / "ck"
        full = _mp_checkpointed(graph, dir, every=1)
        resumed = resume_from_checkpoint(str(dir))
        assert resumed.coreness == full.coreness == flat_reference.coreness
        assert (
            resumed.stats.extra["estimates_sent_total"]
            == full.stats.extra["estimates_sent_total"]
        )

    def test_refined_resume_reports_the_uninterrupted_extra(self, graph,
                                                            tmp_path):
        """The placement policy rides in the manifest, so a resumed
        refined run keeps ``cut_edges_after_refine`` and every other key
        of the run that was never interrupted."""
        whole = _mp_checkpointed(graph, tmp_path / "whole", policy="refined")
        dir = tmp_path / "ck"
        _mp_checkpointed(graph, dir, fixed_rounds=7, policy="refined")
        resumed = resume_from_checkpoint(
            str(dir), max_rounds=1_000_000, strict=True
        )
        assert resumed.coreness == whole.coreness
        assert resumed.algorithm == whole.algorithm
        assert set(resumed.stats.extra) == set(whole.stats.extra)
        assert "cut_edges_after_refine" in resumed.stats.extra
        # the resumed coordinator counts only the checkpoint bytes it
        # committed itself
        differ = {"resumed_from_round", "checkpoint_bytes"}
        for key, value in whole.stats.extra.items():
            if key not in differ:
                assert resumed.stats.extra[key] == value, key
        assert resumed.stats.extra["resumed_from_round"] == 6

    def test_checkpoint_telemetry(self, graph, tmp_path):
        dir = tmp_path / "ck"
        run = _mp_checkpointed(graph, dir, every=2)
        assert run.stats.extra["checkpoint_bytes"] > 0
        assert run.stats.extra["recoveries"] == []
        assert run.stats.extra["resumed_from_round"] is None

    def test_recovery_restores_from_latest_checkpoint(self, graph, tmp_path,
                                                      flat_reference):
        """In-flight worker recovery + checkpoints compose: the respawn
        restores the round-6 snapshot and replays only round 7."""
        dir = tmp_path / "ck"
        run = _mp_checkpointed(
            graph, dir, every=3,
            fault_plan=FaultPlan([Fault.kill(1, 8, when="after_emit")]),
        )
        assert run.coreness == flat_reference.coreness
        assert (
            run.stats.sends_per_round
            == flat_reference.stats.sends_per_round
        )
        assert (
            run.stats.extra["estimates_sent_total"]
            == flat_reference.stats.extra["estimates_sent_total"]
        )
        (event,) = run.stats.extra["recoveries"]
        assert event["restored_from_round"] == 6
        assert event["replayed_rounds"] == 1
