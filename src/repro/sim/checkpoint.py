"""Checkpoint store for the multi-process engine.

A checkpoint freezes a fleet at a lockstep barrier: one opaque state
blob per worker (estimate/support tables, the Figure-5 counter, and the
round-tagged mailbox backlog — produced by the worker itself through
the same ``__getstate__``-style contract that ships shards at spawn,
so a snapshot is self-contained: no in-flight queue data needs saving)
plus a JSON *manifest* recording the coordinator's loop state, the run
configuration, and a checksum for every referenced file.

**Atomicity.** Every file is written as ``<name>.tmp`` and
``os.replace``d into place; the manifest is renamed *last*, so it is
the commit point — a crash mid-write leaves either the previous
complete checkpoint or stray ``.tmp`` files that the loader never
reads. A checkpoint is therefore either complete or invisible, never
torn.

**Versioning.** The manifest records
:data:`CHECKPOINT_FORMAT_VERSION`. Loading a mismatched version raises
:class:`~repro.errors.CheckpointFormatError` in both skew directions
(newer file / older code and vice versa); a checksum or size mismatch
raises :class:`~repro.errors.CheckpointError`. Silent best-effort
restores of half-trusted state are exactly how a recovery layer
corrupts results, so every load is verified end to end.

The directory layout (all inside ``CheckpointPolicy.dir``)::

    fleet.pkl       pickled ShardedCSR — written once per run; makes
                    resume self-contained (no original graph needed)
    state-<x>.pkl   worker x's snapshot blob at the manifest's round
    manifest.json   commit point: version, round, config, coordinator
                    loop state, file checksums

Consumers: :class:`~repro.sim.mp_engine.MultiProcessOneToManyEngine`
writes checkpoints when a :class:`CheckpointPolicy` is configured;
:func:`repro.core.one_to_many.resume_from_checkpoint` restarts a
whole fleet from the directory after a coordinator death.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Sequence

from repro.errors import (
    CheckpointError,
    CheckpointFormatError,
    ConfigurationError,
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointPolicy",
    "CheckpointWriter",
    "Checkpoint",
    "load_checkpoint",
]

#: On-disk manifest format version. Bump on any incompatible change to
#: the manifest schema, the worker snapshot payload or the pickled
#: partition in ``fleet.pkl``; loaders refuse both older and newer files
#: loudly (see the module docstring). Version 2: ``HostShard`` carries
#: its delivery table as three flat arrays.
CHECKPOINT_FORMAT_VERSION = 2

_MANIFEST = "manifest.json"
_FLEET = "fleet.pkl"


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and where the mp engine snapshots the fleet.

    ``every_n_rounds=k`` checkpoints at the barrier after every k-th
    completed round (round k, 2k, ...); ``dir`` is created on first
    write. Configured via ``OneToManyConfig(checkpoint=...)`` or the
    CLI's ``--checkpoint-every`` / ``--checkpoint-dir``.
    """

    every_n_rounds: int
    dir: str

    def __post_init__(self) -> None:
        if not isinstance(self.every_n_rounds, int) or isinstance(
            self.every_n_rounds, bool
        ):
            raise ConfigurationError(
                "checkpoint every_n_rounds must be an int >= 1, got "
                f"{self.every_n_rounds!r}"
            )
        if self.every_n_rounds < 1:
            raise ConfigurationError(
                "checkpoint every_n_rounds must be >= 1, got "
                f"{self.every_n_rounds}"
            )
        if not self.dir or not isinstance(self.dir, str):
            raise ConfigurationError(
                f"checkpoint dir must be a non-empty path, got {self.dir!r}"
            )

    def due(self, round: int) -> bool:
        """Is a checkpoint due at the barrier after ``round``?"""
        return round % self.every_n_rounds == 0


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _write_atomic(path: str, payload: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class CheckpointWriter:
    """Writes the directory layout described in the module docstring."""

    def __init__(self, dir: str) -> None:
        self.dir = dir
        os.makedirs(dir, exist_ok=True)
        self._fleet_entry: dict | None = None

    def write_fleet(self, blob: bytes) -> int:
        """Persist the pickled :class:`ShardedCSR` once; returns bytes."""
        _write_atomic(os.path.join(self.dir, _FLEET), blob)
        self._fleet_entry = {
            "file": _FLEET,
            "sha256": _sha256(blob),
            "bytes": len(blob),
        }
        return len(blob)

    def commit(
        self,
        round: int,
        worker_blobs: Sequence[bytes],
        coordinator: dict,
        config: dict,
    ) -> int:
        """Write one complete checkpoint; returns bytes written.

        Worker state files land first (tmp-then-rename each), the
        manifest last — its rename is the commit point.
        """
        if self._fleet_entry is None:
            raise CheckpointError(
                "write_fleet() must run before the first commit — a "
                "checkpoint without the partitioned graph cannot resume"
            )
        workers = []
        total = 0
        for x, blob in enumerate(worker_blobs):
            name = f"state-{x}.pkl"
            _write_atomic(os.path.join(self.dir, name), blob)
            workers.append(
                {"file": name, "sha256": _sha256(blob), "bytes": len(blob)}
            )
            total += len(blob)
        manifest = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "round": round,
            "config": config,
            "coordinator": coordinator,
            "fleet": self._fleet_entry,
            "workers": workers,
        }
        payload = json.dumps(manifest, indent=1).encode("utf-8")
        _write_atomic(os.path.join(self.dir, _MANIFEST), payload)
        return total + len(payload)


@dataclass(frozen=True)
class Checkpoint:
    """A verified, fully-loaded checkpoint (see :func:`load_checkpoint`)."""

    dir: str
    round: int
    config: dict
    coordinator: dict
    fleet_blob: bytes
    worker_blobs: tuple[bytes, ...]


def _read_verified(dir: str, entry: dict) -> bytes:
    path = os.path.join(dir, entry["file"])
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint file {entry['file']!r} named by the manifest "
            f"could not be read: {exc}"
        ) from None
    if len(payload) != entry["bytes"] or _sha256(payload) != entry["sha256"]:
        raise CheckpointError(
            f"checkpoint file {entry['file']!r} does not match its "
            "manifest checksum — the checkpoint is corrupt or was "
            "written by a different run; refusing to restore from it"
        )
    return payload


def load_checkpoint(dir: str) -> Checkpoint:
    """Load and verify the checkpoint committed in ``dir``.

    Fails loudly — :class:`CheckpointFormatError` on version skew
    (either direction), :class:`CheckpointError` on a missing manifest,
    missing file, or checksum mismatch. Stray ``.tmp`` files from a
    torn write are ignored: only what the manifest names is read.
    """
    manifest_path = os.path.join(dir, _MANIFEST)
    try:
        with open(manifest_path, "rb") as fh:
            manifest = json.loads(fh.read().decode("utf-8"))
    except OSError:
        raise CheckpointError(
            f"no committed checkpoint in {dir!r}: {_MANIFEST} is missing "
            "(an interrupted write leaves only .tmp files, which are "
            "deliberately never read)"
        ) from None
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint manifest {manifest_path!r} is not valid JSON: "
            f"{exc}"
        ) from None
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        if isinstance(version, int) and version > CHECKPOINT_FORMAT_VERSION:
            direction = (
                "was written by a newer library (upgrade this "
                "installation to read it)"
            )
        else:
            direction = (
                "uses an older (or unrecognised) format this library "
                "no longer reads (re-run and re-checkpoint)"
            )
        raise CheckpointFormatError(
            f"checkpoint format version {version!r} != supported version "
            f"{CHECKPOINT_FORMAT_VERSION}: the checkpoint {direction}"
        )
    fleet_blob = _read_verified(dir, manifest["fleet"])
    worker_blobs = tuple(
        _read_verified(dir, entry) for entry in manifest["workers"]
    )
    return Checkpoint(
        dir=dir,
        round=manifest["round"],
        config=manifest["config"],
        coordinator=manifest["coordinator"],
        fleet_blob=fleet_blob,
        worker_blobs=worker_blobs,
    )
