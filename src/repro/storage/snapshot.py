"""Versioned, memory-mappable CSR snapshot files.

A snapshot file is one frozen :class:`~repro.graph.csr.CSRGraph` on disk:
a fixed 64-byte header followed by the adjacency arrays packed exactly as
:func:`repro.graph.csr.payload_layout` lays them out for shared memory.
Because the payload bytes are identical to a shared-memory generation,
attaching a snapshot is the same zero-copy view construction the parallel
workers already do — ``mmap`` the file, slice past the header, and hand the
views straight to :class:`~repro.graph.csr.CSRGraph`.  A multi-GB graph
therefore "loads" in O(1): the kernel pages adjacency in on demand and
shares the pages across every process that attaches the same file.

Header (little-endian, 64 bytes total)::

    offset  0  magic      b"RCSR"
    offset  4  version    u32 (currently 1)
    offset  8  num_nodes  u64
    offset 16  num_edges  u64
    offset 24  digest     16 raw bytes — blake2b-128 of the payload,
                          equal to ``CSRGraph.digest()`` of the graph
    offset 40  crc32      u32 over header bytes [0, 40)
    offset 44  zero padding to 64 (keeps the payload 8-byte aligned)

Writes are crash-safe: the file is built under a temporary name in the
destination directory, flushed and fsynced, then atomically renamed into
place (and the directory fsynced), so a reader can never observe a torn
snapshot under the final name.  The embedded digest lets
:func:`attach_snapshot` (with ``verify=True``) prove bit-identity against
the payload it mapped.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.graph.csr import CSRGraph, as_csr, payload_layout

__all__ = [
    "HEADER_BYTES",
    "MAGIC",
    "VERSION",
    "MappedSnapshot",
    "SnapshotError",
    "SnapshotHeader",
    "attach_snapshot",
    "read_snapshot_header",
    "write_snapshot",
]

MAGIC = b"RCSR"
VERSION = 1
#: fixed header size; also the payload's file offset (8-byte aligned).
HEADER_BYTES = 64

_HEADER_STRUCT = struct.Struct("<4sIQQ16s")  # magic, version, n, m, digest
_CRC_STRUCT = struct.Struct("<I")


class SnapshotError(ReproError):
    """A snapshot file is missing, truncated, corrupt, or version-mismatched."""


@dataclass(frozen=True)
class SnapshotHeader:
    """Parsed header of one snapshot file."""

    num_nodes: int
    num_edges: int
    digest: str  # hex, as CSRGraph.digest() returns it

    @property
    def payload_bytes(self) -> int:
        """Byte size of the packed adjacency payload this header describes."""
        _, size = payload_layout(self.num_nodes, self.num_edges)
        return size

    @property
    def file_bytes(self) -> int:
        """Expected total file size (header + payload)."""
        return HEADER_BYTES + self.payload_bytes


def _pack_header(num_nodes: int, num_edges: int, digest_hex: str) -> bytes:
    body = _HEADER_STRUCT.pack(
        MAGIC, VERSION, num_nodes, num_edges, bytes.fromhex(digest_hex)
    )
    crc = zlib.crc32(body) & 0xFFFFFFFF
    header = body + _CRC_STRUCT.pack(crc)
    return header.ljust(HEADER_BYTES, b"\0")


def _unpack_header(raw: bytes, path: Path) -> SnapshotHeader:
    if len(raw) < HEADER_BYTES:
        raise SnapshotError(f"{path}: truncated snapshot header ({len(raw)} bytes)")
    body = raw[: _HEADER_STRUCT.size]
    magic, version, num_nodes, num_edges, digest = _HEADER_STRUCT.unpack(body)
    if magic != MAGIC:
        raise SnapshotError(f"{path}: not a snapshot file (magic {magic!r})")
    if version != VERSION:
        raise SnapshotError(
            f"{path}: snapshot version {version} unsupported (expected {VERSION})"
        )
    (crc,) = _CRC_STRUCT.unpack_from(raw, _HEADER_STRUCT.size)
    if crc != (zlib.crc32(body) & 0xFFFFFFFF):
        raise SnapshotError(f"{path}: snapshot header CRC mismatch")
    return SnapshotHeader(int(num_nodes), int(num_edges), digest.hex())


def read_snapshot_header(path: str | Path) -> SnapshotHeader:
    """Parse and validate one snapshot file's header (magic, version, CRC).

    Also checks the file size against the header's node/edge counts, so a
    snapshot truncated mid-payload is rejected here without reading the
    payload itself.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read(HEADER_BYTES)
    except FileNotFoundError:
        raise SnapshotError(f"snapshot not found: {path}") from None
    header = _unpack_header(raw, path)
    actual = path.stat().st_size
    if actual != header.file_bytes:
        raise SnapshotError(
            f"{path}: snapshot is {actual} bytes, header describes "
            f"{header.file_bytes}"
        )
    return header


def fsync_directory(directory: str | Path) -> None:
    """fsync a directory so a just-renamed entry survives a crash."""
    fd = os.open(str(directory), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_snapshot(graph, path: str | Path) -> SnapshotHeader:
    """Write ``graph`` (DiGraph or CSRGraph) as a snapshot file, atomically.

    The payload is streamed array by array (no packed in-memory copy of the
    whole graph is built), fsynced, and renamed into place.  Returns the
    written header; ``header.digest`` equals ``as_csr(graph).digest()``.
    """
    csr = as_csr(graph)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = csr.digest()
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    payload = csr.shm_payload()
    try:
        with open(tmp, "wb") as handle:
            handle.write(_pack_header(csr.num_nodes, csr.num_edges, digest))
            for array in payload.values():  # SHM_LAYOUT order, gapless
                handle.write(memoryview(array).cast("B"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_directory(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return SnapshotHeader(csr.num_nodes, csr.num_edges, digest)


class MappedSnapshot:
    """One snapshot file mapped read-only; the storage twin of a shm segment.

    Mirrors the slice of the ``multiprocessing.shared_memory`` surface the
    parallel layer touches — :attr:`buf` (a memoryview of the *payload*
    region, header already sliced off, so byte offsets match a shared-memory
    generation exactly), :meth:`close`, and a no-op :meth:`unlink` (the
    snapshot file is durable state owned by whoever wrote it; releasing a
    mapping must never delete it).  That duck-typing is what lets
    :class:`~repro.parallel.shm.SharedCSRGraph` treat an mmap-backed epoch
    like any other generation segment.
    """

    def __init__(self, path: str | Path, header: SnapshotHeader, mapping) -> None:
        self.path = Path(path)
        self.header = header
        self._mmap = mapping
        self._buf: memoryview | None = memoryview(mapping)[HEADER_BYTES:]

    @classmethod
    def open(cls, path: str | Path) -> "MappedSnapshot":
        """Map ``path`` read-only after validating its header."""
        path = Path(path)
        header = read_snapshot_header(path)
        with open(path, "rb") as handle:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        return cls(path, header, mapping)

    @property
    def buf(self) -> memoryview:
        """The payload bytes (view past the header), shm-segment compatible."""
        if self._buf is None:
            raise SnapshotError(f"snapshot mapping for {self.path} is closed")
        return self._buf

    def graph(self) -> CSRGraph:
        """A :class:`CSRGraph` whose arrays are zero-copy views of the file."""
        return CSRGraph.from_payload(self.buf, self.header.num_nodes, self.header.num_edges)

    def close(self) -> None:
        """Release the mapping.  Matches ``SharedMemory.close`` semantics:
        drop every numpy view *before* closing — like a shared-memory
        segment, the mapping goes away underneath surviving views (and the
        parallel layer's tolerant close path handles the rare
        :class:`BufferError` from a still-exported buffer identically for
        both segment kinds).
        """
        if self._buf is not None:
            self._buf.release()
            self._buf = None
        self._mmap.close()

    def unlink(self) -> None:
        """No-op: snapshot files outlive mappings by design."""

    def __enter__(self) -> "MappedSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.close()
        except BufferError:  # a caller still holds graph views
            pass

    def __repr__(self) -> str:
        state = "closed" if self._buf is None else "open"
        return f"MappedSnapshot({str(self.path)!r}, {state})"


def attach_snapshot(path: str | Path, verify: bool = False) -> MappedSnapshot:
    """Memory-map a snapshot file for serving (no CSR rebuild, no copy).

    With ``verify=True`` the payload is re-hashed and compared against the
    header's embedded digest — an O(payload) sequential read that proves
    bit-identity, used by the recovery path; plain attaches skip it so a
    warm restart touches only the header.
    """
    mapped = MappedSnapshot.open(path)
    try:
        if verify:
            actual = mapped.graph().digest()
            if actual != mapped.header.digest:
                raise SnapshotError(
                    f"{path}: payload digest {actual} does not match header "
                    f"digest {mapped.header.digest}"
                )
    except BaseException:
        # verification failed or raised: the caller never sees the handle,
        # so the mapping must not outlive this frame
        try:
            mapped.close()
        except BufferError:  # pragma: no cover - views still referenced
            pass
        raise
    return mapped
