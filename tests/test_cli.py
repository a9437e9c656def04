"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.graph import generators as gen
from repro.graph.io import write_edge_list
from repro.sim.checkpoint import CHECKPOINT_FORMAT_VERSION, CheckpointWriter


@pytest.fixture()
def edge_file(tmp_path):
    graph = gen.figure1_example()
    path = tmp_path / "fig1.txt"
    write_edge_list(graph, path)
    return str(path)


def _refused_resume(capsys, dir) -> str:
    """``decompose --resume dir`` is a usage error: exit code 2 and one
    stderr line, which names the directory; returns the line."""
    assert main(["decompose", "--resume", str(dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro-kcore: error: ")
    assert captured.err.count("\n") == 1
    assert str(dir) in captured.err
    return captured.err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_decompose_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["decompose"])

    def test_algorithm_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["decompose", "--dataset", "astro", "--algorithm", "magic"]
            )

    def test_churn_takes_no_backend(self, edge_file, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["churn", "--edges", edge_file, "--backend", "numpy"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --backend numpy" in err


class TestDecompose:
    def test_edge_file_bz(self, edge_file, capsys):
        assert main(["decompose", "--edges", edge_file, "--algorithm", "bz"]) == 0
        out = capsys.readouterr().out
        assert "k_max=3" in out
        assert "shell sizes" in out

    def test_edge_file_one_to_one(self, edge_file, capsys):
        assert main(["decompose", "--edges", edge_file]) == 0
        out = capsys.readouterr().out
        assert "one-to-one" in out
        assert "rounds=" in out

    def test_one_to_one_flat_defaults_to_lockstep(self, edge_file, capsys):
        """Without --mode, the documented lockstep default must hold —
        the CLI must not override api.decompose's setdefault."""
        assert main(
            ["decompose", "--edges", edge_file,
             "--algorithm", "one-to-one-flat"]
        ) == 0
        assert "one-to-one/lockstep-flat" in capsys.readouterr().out

    def test_one_to_one_flat_peersim_mode_flag(self, edge_file, capsys):
        assert main(
            ["decompose", "--edges", edge_file,
             "--algorithm", "one-to-one-flat", "--mode", "peersim"]
        ) == 0
        assert "one-to-one/peersim-flat" in capsys.readouterr().out

    def test_one_to_one_engine_flag(self, edge_file, capsys):
        assert main(
            ["decompose", "--edges", edge_file,
             "--algorithm", "one-to-one", "--engine", "flat"]
        ) == 0
        assert "one-to-one/peersim-flat" in capsys.readouterr().out

    def test_one_to_many_hosts_flag(self, edge_file, capsys):
        assert main(
            [
                "decompose", "--edges", edge_file,
                "--algorithm", "one-to-many", "--hosts", "3",
            ]
        ) == 0
        assert "one-to-many" in capsys.readouterr().out

    def test_one_to_many_flat_with_policy_and_communication(
        self, edge_file, capsys
    ):
        assert main(
            [
                "decompose", "--edges", edge_file,
                "--algorithm", "one-to-many-flat", "--hosts", "3",
                "--communication", "p2p", "--policy", "bfs",
            ]
        ) == 0
        assert "one-to-many/p2p/bfs-flat" in capsys.readouterr().out

    def test_one_to_many_engine_flag(self, edge_file, capsys):
        assert main(
            [
                "decompose", "--edges", edge_file,
                "--algorithm", "one-to-many", "--engine", "flat",
            ]
        ) == 0
        assert "one-to-many/broadcast/modulo-flat" in capsys.readouterr().out

    def test_conflicting_flags_are_forwarded_not_dropped(
        self, edge_file, usage_error
    ):
        """The CLI hands conflicting combinations to the config layer
        (which rejects them, a usage error) instead of silently dropping
        a flag."""
        usage_error(
            ["decompose", "--edges", edge_file,
             "--algorithm", "one-to-many", "--engine", "async",
             "--mode", "lockstep"],
            match="lockstep",
        )
        usage_error(
            ["decompose", "--edges", edge_file,
             "--algorithm", "one-to-many-flat", "--engine", "async"],
            match="engine",
        )

    def test_one_to_many_mp_engine(self, edge_file, capsys):
        """--engine mp spawns one process per host shard; --workers is
        the host count and lockstep is implied."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(
                ["decompose", "--edges", edge_file,
                 "--algorithm", "one-to-many", "--engine", "mp",
                 "--workers", "2"]
            ) == 0
        assert "one-to-many/broadcast/modulo-mp" in capsys.readouterr().out

    def test_one_to_many_mp_algorithm_alias(self, edge_file, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(
                ["decompose", "--edges", edge_file,
                 "--algorithm", "one-to-many-mp", "--workers", "2",
                 "--communication", "p2p"]
            ) == 0
        assert "one-to-many/p2p/modulo-mp" in capsys.readouterr().out

    def test_workers_rejected_without_mp_engine(self, edge_file, usage_error):
        usage_error(
            ["decompose", "--edges", edge_file,
             "--algorithm", "one-to-many", "--workers", "2"],
            match="--workers",
        )
        usage_error(
            ["decompose", "--edges", edge_file,
             "--algorithm", "one-to-one", "--workers", "2"],
            match="--workers",
        )

    def test_conflicting_hosts_and_workers_rejected(self, edge_file, usage_error):
        usage_error(
            ["decompose", "--edges", edge_file,
             "--algorithm", "one-to-many", "--engine", "mp",
             "--hosts", "8", "--workers", "4"],
            match="--hosts",
        )

    def test_agreeing_hosts_and_workers_accepted(self, edge_file, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(
                ["decompose", "--edges", edge_file,
                 "--algorithm", "one-to-many", "--engine", "mp",
                 "--hosts", "2", "--workers", "2"]
            ) == 0
        assert "-mp" in capsys.readouterr().out

    def test_mp_peersim_rejected_by_config_layer(self, edge_file, usage_error):
        usage_error(
            ["decompose", "--edges", edge_file,
             "--algorithm", "one-to-many", "--engine", "mp",
             "--workers", "2", "--mode", "peersim"],
            match="peersim",
        )

    def test_mp_alias_takes_numpy_backend(self, edge_file, capsys):
        """The CLI form of decompose(g, "one-to-many-mp", backend="numpy")."""
        import warnings

        from repro.sim.kernels import numpy_available

        if not numpy_available():
            pytest.skip("numpy not installed")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(
                ["decompose", "--edges", edge_file,
                 "--algorithm", "one-to-many-mp", "--workers", "2",
                 "--backend", "numpy"]
            ) == 0
        assert "one-to-many/broadcast/modulo-mp" in capsys.readouterr().out

    def test_checkpoint_and_resume_roundtrip(self, edge_file, tmp_path,
                                             capsys):
        import warnings

        ck = str(tmp_path / "ck")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(
                ["decompose", "--edges", edge_file,
                 "--algorithm", "one-to-many-mp", "--workers", "2",
                 "--checkpoint-every", "2", "--checkpoint-dir", ck]
            ) == 0
            first = capsys.readouterr().out
            assert main(["decompose", "--resume", ck]) == 0
        resumed = capsys.readouterr().out
        assert "resumed:" in resumed
        # same algorithm label and identical decomposition summary
        k_line = [l for l in first.splitlines() if "k_max" in l]
        assert k_line and k_line[0] in resumed

    def test_checkpoint_flags_must_come_together(self, edge_file, usage_error):
        usage_error(
            ["decompose", "--edges", edge_file,
             "--algorithm", "one-to-many-mp", "--workers", "2",
             "--checkpoint-every", "2"],
            match="together",
        )

    def test_checkpoint_needs_mp_engine(self, edge_file, tmp_path, usage_error):
        usage_error(
            ["decompose", "--edges", edge_file,
             "--algorithm", "one-to-many", "--engine", "flat",
             "--checkpoint-every", "2",
             "--checkpoint-dir", str(tmp_path / "ck")],
            match="--engine mp",
        )

    def test_checkpoint_rejected_for_baselines(self, edge_file, tmp_path, usage_error):
        usage_error(
            ["decompose", "--edges", edge_file, "--algorithm", "bz",
             "--checkpoint-every", "2",
             "--checkpoint-dir", str(tmp_path / "ck")],
            match="no meaning",
        )

    def test_resume_rejects_conflicting_flags(self, tmp_path, usage_error):
        usage_error(
            ["decompose", "--resume", str(tmp_path / "ck"),
             "--algorithm", "one-to-many-mp"],
            match="--resume",
        )

    def test_resume_is_a_source(self, edge_file, tmp_path):
        """--resume carries its own graph, so it excludes --edges."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["decompose", "--edges", edge_file,
                 "--resume", str(tmp_path / "ck")]
            )

    def test_resume_missing_checkpoint_fails_loudly(self, tmp_path, capsys):
        line = _refused_resume(capsys, tmp_path / "nowhere")
        assert "manifest.json is missing" in line

    def test_pregel(self, edge_file, capsys):
        assert main(
            ["decompose", "--edges", edge_file, "--algorithm", "pregel"]
        ) == 0
        assert "pregel" in capsys.readouterr().out

    def test_dataset_source(self, capsys):
        assert main(
            [
                "decompose", "--dataset", "gnutella",
                "--scale", "0.05", "--algorithm", "bz",
            ]
        ) == 0
        assert "k_max" in capsys.readouterr().out


class TestBadInput:
    """A bad or missing ``--edges`` file, or an unknown ``--dataset``,
    is a usage error: one stderr line and exit code 2, no traceback."""

    @pytest.mark.parametrize("command", ["decompose", "stats"])
    def test_bad_line(self, tmp_path, capsys, command):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n1 x\n")
        assert main([command, "--edges", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro-kcore: error: {path}:2: non-integer node id in '1 x'\n"
        )

    @pytest.mark.parametrize("command", ["decompose", "stats"])
    def test_undecodable_file(self, tmp_path, capsys, command):
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"0 1\n1 2\n\xff 3\n")
        assert main([command, "--edges", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro-kcore: error: {path}:3: can't decode byte 0xff as UTF-8 "
            "(invalid start byte)\n"
        )

    @pytest.mark.parametrize("command", ["decompose", "stats"])
    def test_missing_file(self, tmp_path, capsys, command):
        path = tmp_path / "nowhere.txt"
        assert main([command, "--edges", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro-kcore: error: {path}: No such file or directory\n"
        )

    @pytest.mark.parametrize("command", ["decompose", "stats"])
    def test_unknown_dataset(self, capsys, command):
        assert main([command, "--dataset", "nosuch"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "repro-kcore: error: unknown dataset 'nosuch'; options: "
        )
        assert captured.err.count("\n") == 1

    def test_gzipped_edge_list_with_comments(self, tmp_path, capsys):
        import gzip

        path = tmp_path / "fig1.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("# comment\n% another\n")
            for u, v in sorted(gen.figure1_example().edges()):
                handle.write(f"{u + 100}\t{v + 100}\r\n")
        outputs = []
        for algorithm in ("one-to-one", "bz"):
            assert main(
                ["decompose", "--edges", str(path), "--algorithm", algorithm]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert all("k_max=3" in out for out in outputs)


class TestUnreadableCheckpoint:
    """A checkpoint that cannot be resumed is refused like a missing one
    (``TestDecompose``): one stderr line naming the directory, exit 2."""

    @pytest.fixture()
    def committed(self, tmp_path):
        """A committed checkpoint directory holding placeholder blobs:
        the loader refuses each case below before it unpickles any."""
        writer = CheckpointWriter(str(tmp_path / "ck"))
        writer.write_fleet(b"fleet")
        writer.commit(2, [b"state-0", b"state-1"], {}, {})
        return tmp_path / "ck"

    def test_version_skew(self, committed, capsys):
        manifest = committed / "manifest.json"
        content = json.loads(manifest.read_text())
        content["format_version"] = CHECKPOINT_FORMAT_VERSION - 1
        manifest.write_text(json.dumps(content))
        assert "format version" in _refused_resume(capsys, committed)

    def test_checksum_mismatch(self, committed, capsys):
        (committed / "state-1.pkl").write_bytes(b"state-X")
        assert "checksum" in _refused_resume(capsys, committed)


class TestStats:
    def test_stats_output(self, edge_file, capsys):
        assert main(["stats", "--edges", edge_file]) == 0
        out = capsys.readouterr().out
        assert "diameter" in out
        assert "k_max" in out


class TestTable1AndDatasets:
    def test_table1_subset(self, capsys):
        assert main(
            [
                "table1", "--scale", "0.05", "--repetitions", "2",
                "--only", "gnutella", "roadnet",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 1 (reproduced)" in out
        assert "gnutella-like" in out

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "web-BerkStan" in out
        assert "synthetic stand-ins" in out
