"""Streaming SNAP edge-list ingestion: text file → snapshot, out of core.

:func:`repro.graph.io.read_edge_list` materialises the whole graph as Python
objects — the right tool up to a few million edges, the wrong one for the
paper's billion-edge regime.  :func:`ingest_edge_list` builds the *same* CSR
snapshot in bounded memory instead:

Pass 1 (parse + count + spill)
    The text file is streamed line by line through the parser
    ``read_edge_list`` uses (:func:`repro.graph.io.parse_edge_lines`), with
    its relabelling order and self-loop policy; surviving edges are spilled to a temporary binary file
    through a fixed-size chunk buffer while per-node in/out degree counters
    grow.  Memory: O(nodes + chunk).

Pass 2 (counting-sort fill)
    Degree counts become raw CSR offsets; the spill file is re-read chunk by
    chunk and each edge is scattered into out/in index arrays backed by a
    scratch ``np.memmap`` — a classic out-of-core counting sort that
    preserves file order within every adjacency row, which is exactly the
    insertion order ``DiGraph`` would have produced.

Pass 3 (per-row dedup + snapshot write)
    Duplicate edges are dropped per adjacency row, keeping first
    occurrences (equivalent to ``read_edge_list``'s global first-occurrence
    rule, since duplicates of ``(s, t)`` all land in row ``s``).  The final
    arrays stream row by row into a snapshot file laid out by
    :mod:`repro.storage.snapshot`, the digest is computed over the written
    payload, and the file is atomically renamed into place.

The result is bit-identical to
``write_snapshot(read_edge_list(path), out)`` — the property suite round-trips
random edge lists through both paths and compares CSR bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path

import numpy as np

from repro.errors import DatasetError
from repro.graph.csr import payload_layout
from repro.graph.io import _open_text, parse_edge_lines
from repro.storage.snapshot import (
    HEADER_BYTES,
    SnapshotHeader,
    _pack_header,
    fsync_directory,
)

__all__ = ["IngestStats", "ingest_edge_list"]

#: spill/read granularity: edges per chunk buffer (each edge is 16 bytes).
DEFAULT_CHUNK_EDGES = 1 << 18


@dataclass(frozen=True)
class IngestStats:
    """What one :func:`ingest_edge_list` run read, dropped, and wrote."""

    path: str
    nodes: int
    edges: int
    lines: int
    duplicates: int
    self_loops: int
    chunk_edges: int
    spill_bytes: int
    digest: str

    @property
    def header(self) -> SnapshotHeader:
        """The written snapshot's header equivalent."""
        return SnapshotHeader(self.nodes, self.edges, self.digest)


def _grow(counts: np.ndarray, size: int) -> np.ndarray:
    """Zero-extended copy of ``counts`` covering at least ``size`` entries."""
    if size <= counts.size:
        return counts
    grown = np.zeros(max(size, 2 * counts.size, 1024), dtype=np.int64)
    grown[: counts.size] = counts
    return grown


def _dedup_row(row: np.ndarray) -> np.ndarray:
    """Drop repeated values keeping first occurrences (file order)."""
    _, first = np.unique(row, return_index=True)
    if first.size == row.size:
        return row
    return row[np.sort(first)]


def ingest_edge_list(
    path: str | Path,
    out: str | Path,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    comments: str = "#",
    relabel: bool = True,
    deduplicate: bool = True,
    drop_self_loops: bool = True,
    workdir: str | Path | None = None,
) -> IngestStats:
    """Build a CSR snapshot file from a SNAP edge list, out of core.

    Parameters mirror :func:`repro.graph.io.read_edge_list` (gzip-transparent,
    same relabel/dedup/self-loop semantics); ``chunk_edges`` bounds the spill
    buffer (any positive value, down to 1, produces identical output) and
    ``workdir`` hosts the temporary spill/scratch files (defaults to the
    output's directory so the final rename stays on one filesystem).
    """
    path = Path(path)
    out = Path(out)
    if chunk_edges < 1:
        raise DatasetError(f"chunk_edges must be >= 1, got {chunk_edges}")
    if not path.exists():
        raise DatasetError(f"edge list not found: {path}")
    out.parent.mkdir(parents=True, exist_ok=True)
    workdir = Path(workdir) if workdir is not None else out.parent
    workdir.mkdir(parents=True, exist_ok=True)
    tag = f"{out.name}.{os.getpid()}"
    spill_path = workdir / f".ingest-spill-{tag}"
    scratch_path = workdir / f".ingest-scratch-{tag}"
    tmp_path = out.parent / f".{out.name}.tmp-{os.getpid()}"
    try:
        return _ingest(
            path, out, tmp_path, spill_path, scratch_path,
            int(chunk_edges), comments, relabel, deduplicate, drop_self_loops,
        )
    finally:
        spill_path.unlink(missing_ok=True)
        scratch_path.unlink(missing_ok=True)
        tmp_path.unlink(missing_ok=True)


def _ingest(
    path: Path,
    out: Path,
    tmp_path: Path,
    spill_path: Path,
    scratch_path: Path,
    chunk_edges: int,
    comments: str,
    relabel: bool,
    deduplicate: bool,
    drop_self_loops: bool,
) -> IngestStats:
    label_of: dict[int, int] = {}

    def intern(raw: int) -> int:
        node = label_of.get(raw)
        if node is None:
            node = len(label_of)
            label_of[raw] = node
        return node

    out_counts = np.zeros(0, dtype=np.int64)
    in_counts = np.zeros(0, dtype=np.int64)
    buffer = np.empty((chunk_edges, 2), dtype=np.int64)
    filled = 0
    kept = 0
    lines = 0
    self_loops = 0
    max_id = -1
    spill_bytes = 0

    # ---- pass 1: parse, relabel, count degrees, spill fixed-size chunks ----
    with _open_text(path, "r") as handle, open(spill_path, "wb") as spill:
        for lineno, raw_s, raw_t in parse_edge_lines(handle, path, comments, relabel):
            lines += 1
            # interning order matches read_edge_list: ids register before
            # the self-loop check, so dropped lines still claim labels
            if relabel:
                source, target = intern(raw_s), intern(raw_t)
            else:
                source, target = raw_s, raw_t
            if source == target:
                if drop_self_loops:
                    self_loops += 1
                    continue
                raise DatasetError(f"{path}:{lineno}: self-loop on node {raw_s}")
            top = max(source, target)
            if top > max_id:
                max_id = top
            if top >= out_counts.size:
                out_counts = _grow(out_counts, top + 1)
                in_counts = _grow(in_counts, top + 1)
            out_counts[source] += 1
            in_counts[target] += 1
            buffer[filled] = (source, target)
            filled += 1
            kept += 1
            if filled == chunk_edges:
                chunk = buffer[:filled].tobytes()
                spill.write(chunk)
                spill_bytes += len(chunk)
                filled = 0
        if filled:
            chunk = buffer[:filled].tobytes()
            spill.write(chunk)
            spill_bytes += len(chunk)

    num_nodes = len(label_of) if relabel else max_id + 1
    raw_edges = kept
    # nodes interned on dropped lines (self-loops) may sit past the last
    # kept edge's id, so the counters can be shorter than num_nodes
    out_counts = _grow(out_counts, num_nodes)[:num_nodes]
    in_counts = _grow(in_counts, num_nodes)[:num_nodes]

    # ---- pass 2: counting-sort the spill into raw (dup-including) CSR ----
    raw_out_indptr = np.concatenate(([0], np.cumsum(out_counts)))
    raw_in_indptr = np.concatenate(([0], np.cumsum(in_counts)))
    if raw_edges:
        with open(scratch_path, "wb") as handle:
            handle.truncate(2 * raw_edges * 4)
        scratch = np.memmap(
            scratch_path, dtype=np.int32, mode="r+", shape=(2, raw_edges)
        )
        raw_out, raw_in = scratch[0], scratch[1]
        out_cursor = raw_out_indptr[:-1].copy()
        in_cursor = raw_in_indptr[:-1].copy()
        with open(spill_path, "rb") as spill:
            while True:
                blob = spill.read(chunk_edges * 16)
                if not blob:
                    break
                pairs = np.frombuffer(blob, dtype=np.int64).reshape(-1, 2)
                for source, target in pairs.tolist():
                    raw_out[out_cursor[source]] = target
                    out_cursor[source] += 1
                    raw_in[in_cursor[target]] = source
                    in_cursor[target] += 1
    else:
        raw_out = raw_in = np.empty(0, dtype=np.int32)

    # ---- pass 3: per-row first-occurrence dedup, streamed snapshot write ----
    out_unique = np.empty(num_nodes, dtype=np.int64)
    in_unique = np.empty(num_nodes, dtype=np.int64)
    for node in range(num_nodes):
        row = raw_out[raw_out_indptr[node] : raw_out_indptr[node + 1]]
        out_unique[node] = np.unique(row).size
        row = raw_in[raw_in_indptr[node] : raw_in_indptr[node + 1]]
        in_unique[node] = np.unique(row).size
    num_edges = int(out_unique.sum())
    if not deduplicate and num_edges != raw_edges:
        raise DatasetError(
            f"{path}: {raw_edges - num_edges} duplicate edges with "
            "deduplicate=False"
        )

    layout, payload_size = payload_layout(num_nodes, num_edges)
    file_bytes = HEADER_BYTES + payload_size
    with open(tmp_path, "wb") as handle:
        handle.truncate(file_bytes)
    mapped = np.memmap(tmp_path, dtype=np.uint8, mode="r+", shape=(file_bytes,))
    views = {
        field: np.ndarray(
            (count,), dtype=dtype, buffer=mapped, offset=HEADER_BYTES + offset
        )
        for field, dtype, offset, count in layout
    }
    views["out_indptr"][0] = 0
    np.cumsum(out_unique, out=views["out_indptr"][1:])
    views["in_indptr"][0] = 0
    np.cumsum(in_unique, out=views["in_indptr"][1:])
    for field, raw, indptr in (
        ("out_indices", raw_out, raw_out_indptr),
        ("in_indices", raw_in, raw_in_indptr),
    ):
        cursor = 0
        target_view = views[field]
        for node in range(num_nodes):
            row = _dedup_row(raw[indptr[node] : indptr[node + 1]])
            target_view[cursor : cursor + row.size] = row
            cursor += row.size
    del views
    mapped.flush()

    # hash the written payload in bounded blocks (matches CSRGraph.digest:
    # the packed fields are gapless, so the payload region IS their bytes)
    hasher = blake2b(digest_size=16)
    hasher.update(np.array([num_nodes, num_edges], dtype=np.int64).tobytes())
    with open(tmp_path, "rb") as handle:
        handle.seek(HEADER_BYTES)
        remaining = sum(
            int(np.dtype(dtype).itemsize) * count for _, dtype, _, count in layout
        )
        while remaining:
            block = handle.read(min(remaining, 1 << 20))
            hasher.update(block)
            remaining -= len(block)
    digest = hasher.hexdigest()
    mapped[:HEADER_BYTES] = np.frombuffer(
        _pack_header(num_nodes, num_edges, digest), dtype=np.uint8
    )
    mapped.flush()
    del mapped
    with open(tmp_path, "rb") as handle:
        os.fsync(handle.fileno())
    os.replace(tmp_path, out)
    fsync_directory(out.parent)
    return IngestStats(
        path=str(out),
        nodes=num_nodes,
        edges=num_edges,
        lines=lines,
        duplicates=raw_edges - num_edges,
        self_loops=self_loops,
        chunk_edges=chunk_edges,
        spill_bytes=spill_bytes,
        digest=digest,
    )
