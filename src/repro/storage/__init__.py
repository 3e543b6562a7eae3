"""Persistent storage tier: out-of-core ingest, mmap serving, crash recovery.

Every other layer serves from RAM rebuilt at startup; this package is the
disk story underneath them, log-structured the way LogBase lays it out —
snapshot periodically, log mutations, recover by snapshot + log replay:

:mod:`~repro.storage.snapshot`
    Versioned CSR snapshot files whose payload bytes match the
    shared-memory layout, so serving attaches them zero-copy via ``mmap``
    (:func:`attach_snapshot`) instead of rebuilding arrays.
:mod:`~repro.storage.ingest`
    :func:`ingest_edge_list` — a streaming SNAP-format ingester that
    builds the snapshot out of core in bounded memory (two-pass counting
    sort spilled through fixed-size chunks), bit-identical to the
    in-memory ``read_edge_list`` path.
:mod:`~repro.storage.wal`
    :class:`WriteAheadLog` — CRC-framed append-only edge-update records;
    torn tails from a killed writer are detected and dropped, never
    replayed.
:mod:`~repro.storage.store`
    :class:`PersistentGraphStore` (write-ahead logging + checkpoint
    rotation) and :func:`recover` (newest valid snapshot + WAL-tail
    replay, digest-verified).

Entry points: ``repro ingest`` / ``repro recover`` / ``repro serve
--snapshot`` on the CLI, ``snapshot=`` / ``store=`` on the parallel
services, and ``benchmarks/bench_storage.py`` in the harness.
"""

from repro.storage.ingest import IngestStats, ingest_edge_list
from repro.storage.snapshot import (
    MappedSnapshot,
    SnapshotError,
    SnapshotHeader,
    attach_snapshot,
    read_snapshot_header,
    write_snapshot,
)
from repro.storage.store import (
    PersistentGraphStore,
    RecoveredGraph,
    StoreError,
    recover,
)
from repro.storage.wal import WalError, WalTail, WriteAheadLog

__all__ = [
    "IngestStats",
    "MappedSnapshot",
    "PersistentGraphStore",
    "RecoveredGraph",
    "SnapshotError",
    "SnapshotHeader",
    "StoreError",
    "WalError",
    "WalTail",
    "WriteAheadLog",
    "attach_snapshot",
    "ingest_edge_list",
    "read_snapshot_header",
    "recover",
    "write_snapshot",
]
