"""Append-only write-ahead log of edge updates, CRC-framed per record.

The durable twin of the pool's delta RPC
(:class:`repro.parallel.pool.ParallelSimRankService`): where the
``("delta", updates)`` message makes an update burst visible to the
workers, this log makes it *durable*.  The serving layer appends each
burst before shipping it (write-ahead), so after a crash the log holds
every acknowledged burst and recovery replays it on top of the last
snapshot.

File layout (little-endian)::

    header   b"RWAL" | version u32 | generation u64 | crc32 u32 | pad → 24 B
    records  crc32 u32 over payload | payload (kind u8, source i64, target i64)

Every record is a fixed 21-byte frame.  A writer killed mid-append leaves a
*torn tail*: a partial frame, or a frame whose CRC does not match its bytes.
:meth:`WriteAheadLog.replay` stops at the first invalid frame and reports the
byte offset of the valid prefix — the durable history is exactly the records
before it, never a torn one.  :meth:`WriteAheadLog.open` truncates that tail
away (standard log repair) so appends resume from a clean end.

``generation`` ties a log to the snapshot it extends: generation ``g``'s
records apply on top of ``snapshot-g``.  Checkpointing rotates to a fresh
log with a bumped generation (see :mod:`repro.storage.store`).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.graph.dynamic import EdgeUpdate

__all__ = ["RECORD_BYTES", "WalError", "WalTail", "WriteAheadLog"]

_MAGIC = b"RWAL"
_VERSION = 1
_HEADER_STRUCT = struct.Struct("<4sIQI")  # magic, version, generation, crc
#: fixed header size (struct + zero padding, keeps records 8-aligned-ish)
HEADER_BYTES = 24

_PAYLOAD_STRUCT = struct.Struct("<Bqq")  # kind, source, target
_CRC_STRUCT = struct.Struct("<I")
#: fixed size of one framed record: crc32 prefix + packed payload.
RECORD_BYTES = _CRC_STRUCT.size + _PAYLOAD_STRUCT.size

_KINDS = ("insert", "delete")


class WalError(ReproError):
    """The log file is missing, has a bad header, or refused an append."""


@dataclass(frozen=True)
class WalTail:
    """One :meth:`WriteAheadLog.replay` result: the valid record prefix.

    ``valid_bytes`` is the file offset right after the last intact record;
    anything beyond it (``torn_bytes > 0``) is a torn tail from a writer
    killed mid-append, safe to truncate away.
    """

    generation: int
    updates: tuple[EdgeUpdate, ...]
    valid_bytes: int
    torn_bytes: int


def _pack_record(update: EdgeUpdate) -> bytes:
    payload = _PAYLOAD_STRUCT.pack(
        _KINDS.index(update.kind), update.source, update.target
    )
    return _CRC_STRUCT.pack(zlib.crc32(payload) & 0xFFFFFFFF) + payload


def _pack_file_header(generation: int) -> bytes:
    body = struct.pack("<4sIQ", _MAGIC, _VERSION, generation)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return (body + _CRC_STRUCT.pack(crc)).ljust(HEADER_BYTES, b"\0")


def _read_file_header(raw: bytes, path: Path) -> int:
    if len(raw) < HEADER_BYTES:
        raise WalError(f"{path}: truncated WAL header ({len(raw)} bytes)")
    magic, version, generation, crc = _HEADER_STRUCT.unpack(
        raw[: _HEADER_STRUCT.size]
    )
    if magic != _MAGIC:
        raise WalError(f"{path}: not a WAL file (magic {magic!r})")
    if version != _VERSION:
        raise WalError(
            f"{path}: WAL version {version} unsupported (expected {_VERSION})"
        )
    body = raw[: _HEADER_STRUCT.size - _CRC_STRUCT.size]
    if crc != (zlib.crc32(body) & 0xFFFFFFFF):
        raise WalError(f"{path}: WAL header CRC mismatch")
    return int(generation)


class WriteAheadLog:
    """Writer handle over one generation's append-only log file.

    Create with :meth:`create` (fresh, truncating) or :meth:`open`
    (existing — replays to validate, repairs a torn tail, resumes
    appending).  :meth:`replay` is a classmethod so recovery can read a
    dead writer's log without taking write ownership of it.
    """

    def __init__(self, path: Path, generation: int, handle, records: int) -> None:
        self.path = path
        self.generation = int(generation)
        self._handle = handle
        self._records = int(records)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls, path: str | Path, generation: int, fsync: bool = True
    ) -> "WriteAheadLog":
        """Start a fresh log for ``generation`` (truncates any existing file)."""
        path = Path(path)
        handle = open(path, "wb")
        try:
            handle.write(_pack_file_header(generation))
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        except BaseException:
            handle.close()
            raise
        return cls(path, generation, handle, records=0)

    @classmethod
    def open(cls, path: str | Path) -> "WriteAheadLog":
        """Open an existing log for appending, truncating any torn tail."""
        path = Path(path)
        tail = cls.replay(path)
        handle = open(path, "r+b")
        try:
            if tail.torn_bytes:
                handle.truncate(tail.valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
            handle.seek(tail.valid_bytes)
        except BaseException:
            handle.close()
            raise
        return cls(path, tail.generation, handle, records=len(tail.updates))

    @classmethod
    def replay(cls, path: str | Path) -> WalTail:
        """Read the valid record prefix of ``path`` (read-only, no repair).

        Scans frame by frame; the first incomplete frame or CRC mismatch
        ends the replay — by construction an append is acknowledged only
        after its frame is fully written, so the valid prefix is exactly
        the acknowledged history.
        """
        path = Path(path)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            raise WalError(f"WAL not found: {path}") from None
        generation = _read_file_header(raw, path)
        updates: list[EdgeUpdate] = []
        offset = HEADER_BYTES
        while offset + RECORD_BYTES <= len(raw):
            (crc,) = _CRC_STRUCT.unpack_from(raw, offset)
            payload = raw[
                offset + _CRC_STRUCT.size : offset + RECORD_BYTES
            ]
            if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
                break
            kind, source, target = _PAYLOAD_STRUCT.unpack(payload)
            if kind >= len(_KINDS):
                break
            updates.append(EdgeUpdate(_KINDS[kind], int(source), int(target)))
            offset += RECORD_BYTES
        return WalTail(
            generation=generation,
            updates=tuple(updates),
            valid_bytes=offset,
            torn_bytes=len(raw) - offset,
        )

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #

    @property
    def records(self) -> int:
        """Records durably appended through this handle (incl. pre-existing)."""
        return self._records

    def append(self, updates, fsync: bool = True) -> int:
        """Frame and append an update burst; returns the new record count.

        The burst is written as one contiguous byte string and (with
        ``fsync=True``, the default) forced to disk before returning —
        the write-ahead guarantee the serving layer acknowledges bursts
        on.  A crash mid-call leaves at most one torn frame, which replay
        drops; it can never corrupt earlier records.
        """
        if self._handle is None:
            raise WalError(f"{self.path}: log is closed")
        frames = b"".join(_pack_record(update) for update in updates)
        if not frames:
            return self._records
        self._handle.write(frames)
        self._handle.flush()
        if fsync:
            os.fsync(self._handle.fileno())
        self._records += len(frames) // RECORD_BYTES
        return self._records

    def close(self) -> None:
        """Close the file handle (idempotent; the log itself stays on disk)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._handle is None else "open"
        return (
            f"WriteAheadLog({str(self.path)!r}, generation={self.generation}, "
            f"records={self._records}, {state})"
        )
