"""Snapshot + WAL storage directories: durable graphs with crash recovery.

A *store* is one directory holding the log-structured persistent form of a
graph, LogBase-style::

    <dir>/
      snapshot-000001.csr    # CSR snapshot of generation 1
      wal-000001.log         # updates acknowledged since that snapshot

The mutation path appends every update burst to the live generation's WAL
*before* the burst is shipped to serving replicas; a checkpoint (triggered
by the serving layer's compaction, or explicitly) writes a fresh snapshot
that folds the log in, starts an empty next-generation WAL, and only then
deletes the superseded files.  Every step is individually crash-safe:

- snapshot writes are tmp + atomic rename (:func:`~repro.storage.snapshot.
  write_snapshot`), so a renamed snapshot is always complete;
- a crash before the new WAL exists recovers as "snapshot + no tail" — the
  snapshot already contains everything the old WAL held;
- a crash before the old generation is deleted is invisible — recovery
  always picks the *newest valid* generation;
- a crash mid-WAL-append leaves a torn frame that replay drops.

:func:`recover` is the read-only half: pick the newest generation whose
snapshot verifies (header CRC, size, payload digest), replay its WAL's
valid prefix, and hand back the pre-crash graph — bit-identical to the
state after the last acknowledged burst (or the burst boundary just before
a torn append).  It never repairs anything, so fault-injection tests can
re-recover the same wreckage repeatedly; :meth:`PersistentGraphStore.open`
is the writer-side variant that truncates the torn tail and resumes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.graph.csr import CSRGraph, as_csr
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import EdgeUpdate, apply_update
from repro.storage.snapshot import (
    MappedSnapshot,
    SnapshotError,
    attach_snapshot,
    write_snapshot,
)
from repro.storage.wal import WalError, WriteAheadLog

__all__ = ["PersistentGraphStore", "RecoveredGraph", "StoreError", "recover"]

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{6})\.csr$")


class StoreError(ReproError):
    """The store directory holds no usable generation."""


def snapshot_path(directory: Path, generation: int) -> Path:
    """The snapshot file name of ``generation`` inside ``directory``."""
    return directory / f"snapshot-{generation:06d}.csr"


def wal_path(directory: Path, generation: int) -> Path:
    """The WAL file name of ``generation`` inside ``directory``."""
    return directory / f"wal-{generation:06d}.log"


def _generations(directory: Path) -> list[int]:
    """Snapshot generations present in ``directory``, newest first."""
    found = []
    for entry in directory.iterdir():
        match = _SNAPSHOT_RE.match(entry.name)
        if match:
            found.append(int(match.group(1)))
    return sorted(found, reverse=True)


@dataclass
class RecoveredGraph:
    """One :func:`recover` result: the newest durable graph state.

    ``snapshot`` is the mmap-attached (verified) snapshot; ``tail`` the
    WAL updates acknowledged after it.  :meth:`graph` materialises
    snapshot+tail; with an empty tail :meth:`csr` is the zero-copy mmap
    view itself — the warm-attach path that serves without rebuilding.
    """

    directory: Path
    generation: int
    snapshot: MappedSnapshot
    tail: tuple[EdgeUpdate, ...]
    torn_bytes: int

    def graph(self) -> DiGraph:
        """Mutable snapshot+tail replay (the writer-side recovery state)."""
        graph = self.snapshot.graph().to_digraph()
        for update in self.tail:
            apply_update(graph, update)
        return graph

    def csr(self) -> CSRGraph:
        """Frozen recovered state; zero-copy when the tail is empty."""
        if not self.tail:
            return self.snapshot.graph()
        return CSRGraph.from_digraph(self.graph())

    def digest(self) -> str:
        """Bit-identity digest of the recovered graph state."""
        if not self.tail:
            return self.snapshot.header.digest
        return self.csr().digest()

    def close(self) -> None:
        """Release the snapshot mapping (drop graph views first)."""
        try:
            self.snapshot.close()
        except BufferError:  # views still referenced; mapping dies with them
            pass

    def __enter__(self) -> "RecoveredGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def recover(path: str | Path, verify: bool = True) -> RecoveredGraph:
    """Replay the newest valid snapshot + WAL tail of a store directory.

    Read-only and idempotent: nothing in ``path`` is modified, so the same
    crash state recovers to the same graph every time.  Generations whose
    snapshot fails validation (torn header, size mismatch, payload digest
    mismatch under ``verify=True``) are skipped in favour of the next
    older one; a missing WAL is an empty tail.  Raises :class:`StoreError`
    when no generation is usable.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise StoreError(f"not a store directory: {directory}")
    failures: list[str] = []
    for generation in _generations(directory):
        try:
            snapshot = attach_snapshot(
                snapshot_path(directory, generation), verify=verify
            )
        except SnapshotError as exc:
            failures.append(str(exc))
            continue
        tail: tuple[EdgeUpdate, ...] = ()
        torn = 0
        wal_file = wal_path(directory, generation)
        if wal_file.exists():
            try:
                replay = WriteAheadLog.replay(wal_file)
            except WalError as exc:
                # an unreadable WAL header means the rotation crashed before
                # the log existed in full: the snapshot alone is the state
                failures.append(str(exc))
            else:
                if replay.generation != generation:
                    failures.append(
                        f"{wal_file}: generation {replay.generation} does not "
                        f"match snapshot generation {generation}"
                    )
                else:
                    tail = replay.updates
                    torn = replay.torn_bytes
        return RecoveredGraph(directory, generation, snapshot, tail, torn)
    detail = "; ".join(failures) if failures else "no snapshot files"
    raise StoreError(f"{directory}: no recoverable generation ({detail})")


class PersistentGraphStore:
    """Writer-side handle: log update bursts, checkpoint generations.

    The serving layer drives this through two calls — :meth:`log` on every
    acknowledged burst (write-ahead, before replicas see it) and
    :meth:`checkpoint` whenever it publishes a fresh CSR generation (every
    rebuild sync, compaction included).  ``fsync=False`` trades the per-burst durability barrier
    for throughput (the frames still stream to the OS immediately); the
    crash-safety *structure* is unaffected.
    """

    def __init__(
        self, directory: Path, generation: int, wal: WriteAheadLog, fsync: bool
    ) -> None:
        self.directory = directory
        self.generation = int(generation)
        self._wal = wal
        self._fsync = bool(fsync)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls, directory: str | Path, graph, fsync: bool = True
    ) -> "PersistentGraphStore":
        """Initialise ``directory`` with generation 1 of ``graph``.

        Refuses a directory that already holds a store (use :meth:`open`);
        creates it (and parents) when missing.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if _generations(directory):
            raise StoreError(
                f"{directory} already holds a store; open() it instead"
            )
        write_snapshot(graph, snapshot_path(directory, 1))
        wal = WriteAheadLog.create(wal_path(directory, 1), 1, fsync=fsync)
        return cls(directory, 1, wal, fsync)

    @classmethod
    def open(
        cls, directory: str | Path, verify: bool = True, fsync: bool = True
    ) -> "PersistentGraphStore":
        """Recover ``directory`` and resume writing where the log ends.

        Repairs crash debris: truncates a torn WAL tail, creates the WAL if
        the previous writer died between snapshot rename and log creation,
        and removes files of superseded or invalid generations.
        """
        directory = Path(directory)
        with recover(directory, verify=verify) as state:
            generation = state.generation
        wal_file = wal_path(directory, generation)
        if wal_file.exists():
            wal = WriteAheadLog.open(wal_file)
        else:
            wal = WriteAheadLog.create(wal_file, generation, fsync=fsync)
        store = cls(directory, generation, wal, fsync)
        store._sweep()
        return store

    # ------------------------------------------------------------------ #
    # the two write paths
    # ------------------------------------------------------------------ #

    @property
    def wal_records(self) -> int:
        """Updates durably logged against the live generation."""
        return self._wal.records

    def log(self, updates) -> int:
        """Write-ahead one update burst; durable before the call returns."""
        return self._wal.append(updates, fsync=self._fsync)

    def checkpoint(self, graph) -> int:
        """Fold state into a fresh snapshot generation; rotate the WAL.

        ``graph`` must be the post-burst graph the caller serves (the
        coordinator's authoritative copy).  Ordering is the crash-safety
        argument: snapshot rename → new WAL → old files deleted, each step
        leaving recovery with either the old generation (plus its full
        log) or the new one.  Returns the new generation number.
        """
        new_generation = self.generation + 1
        write_snapshot(as_csr(graph), snapshot_path(self.directory, new_generation))
        old_wal = self._wal
        self._wal = WriteAheadLog.create(
            wal_path(self.directory, new_generation), new_generation,
            fsync=self._fsync,
        )
        old_generation = self.generation
        self.generation = new_generation
        old_wal.close()
        wal_path(self.directory, old_generation).unlink(missing_ok=True)
        snapshot_path(self.directory, old_generation).unlink(missing_ok=True)
        return new_generation

    def _sweep(self) -> None:
        """Remove files of generations other than the live one, and tmp debris."""
        for entry in list(self.directory.iterdir()):
            match = _SNAPSHOT_RE.match(entry.name)
            stale_generation = None
            if match:
                stale_generation = int(match.group(1))
            elif entry.name.startswith((".snapshot-", ".ingest-")):
                entry.unlink(missing_ok=True)  # crashed tmp/scratch files
                continue
            else:
                wal_match = re.match(r"^wal-(\d{6})\.log$", entry.name)
                if wal_match:
                    stale_generation = int(wal_match.group(1))
            if stale_generation is not None and stale_generation != self.generation:
                entry.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # reads / lifecycle
    # ------------------------------------------------------------------ #

    def materialize(self) -> DiGraph:
        """The live graph state: snapshot + every logged update, mutable."""
        with recover(self.directory, verify=False) as state:
            return state.graph()

    def close(self) -> None:
        """Close the WAL handle (idempotent; all state stays on disk)."""
        self._wal.close()

    def __enter__(self) -> "PersistentGraphStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"PersistentGraphStore({str(self.directory)!r}, "
            f"generation={self.generation}, wal_records={self.wal_records})"
        )
