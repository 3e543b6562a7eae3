"""Zero-copy CSR graph snapshots in POSIX shared memory.

The process-parallel serving layer (:mod:`repro.parallel.pool`) separates
compute from data the way shared-data HTAP systems do: every worker process
answers queries against the *same* physical adjacency arrays, mapped
read-only into its address space, instead of each worker pickling and
copying the graph.  :class:`SharedCSRGraph` is that shared-data half:

Creator side (the service coordinator)
    :meth:`SharedCSRGraph.create` packs a :class:`~repro.graph.csr.CSRGraph`
    snapshot's adjacency payload (``SHM_LAYOUT`` order) into one
    ``multiprocessing.shared_memory`` segment per graph *generation*
    (``{base_name}-g{epoch}``), starting at epoch 0.  After graph
    mutations, :meth:`SharedCSRGraph.publish` writes the new snapshot into
    a fresh segment and returns the next epoch; the old segment stays
    mapped until every worker has moved over
    (:meth:`SharedCSRGraph.release_epoch`), so readers never observe a
    half-written graph.

File-backed generations
    A generation can also be an on-disk snapshot file
    (:mod:`repro.storage.snapshot`, the same payload bytes after a 64-byte
    header): :meth:`SharedCSRGraph.from_snapshot` serves a frozen file
    (``--snapshot``), and :meth:`SharedCSRGraph.publish` given a *path*
    adopts a durable store's fresh checkpoint as the next generation.
    Nothing is copied; workers ``mmap`` the file and the page cache holds
    the one physical copy.  The descriptor's ``snapshot_path`` tells them
    which kind to map.  Releasing a file-backed generation only closes
    the mapping: the file belongs to whoever wrote it.

Worker side
    :meth:`SharedCSRGraph.attach` maps the segment named by a (picklable)
    :class:`ShmGraphDescriptor` and rebuilds a :class:`CSRGraph` whose
    arrays are views straight into the shared buffer — no copy, O(1)
    regardless of graph size.  Workers learn of a new epoch only through
    the descriptor the coordinator sends in its barrier RPC, and
    :meth:`SharedCSRGraph.reattach` moves an attachment onto it.  Edge
    update bursts (delta maintenance) never touch shared memory: they ride
    in the pool's ``("delta", updates)`` RPC.

Lifecycle discipline
    Segments are named (they outlive processes), so leak hygiene matters:
    the creator owns unlinking, does it in :meth:`close`, and carries a
    ``weakref.finalize`` safety net so dropping the last reference — or a
    crashing coordinator unwinding the interpreter — still removes every
    segment.  Attachments never unlink.  Only in-memory graphs make
    segments, so only their pools start Python's ``resource_tracker`` (one
    process shared by the whole tree, set-keyed); it is left alone: the
    owner's ``unlink`` unregisters each name exactly once, and if the
    coordinator is killed outright the tracker unlinks the leftovers — a
    second safety net.  A pool whose every generation is a file (snapshot-
    or store-served) makes no segment and starts no tracker.
"""

from __future__ import annotations

import gc
import os
import secrets
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph, as_csr, payload_layout
from repro.storage.snapshot import MappedSnapshot

__all__ = ["ShmGraphDescriptor", "SharedCSRGraph"]


def _close_segment(segment: shared_memory.SharedMemory) -> None:
    """Close one mapping, tolerating still-exported numpy views.

    ``SharedMemory.close`` raises :class:`BufferError` while any numpy view
    into the buffer is alive; dropping the graph normally releases them, but
    an estimator held elsewhere may pin one.  The mapping then stays open
    until process exit — harmless, and crucially independent of *unlinking*,
    which the owner can always do.
    """
    try:
        segment.close()
    except BufferError:
        gc.collect()
        try:
            segment.close()
        except BufferError:
            pass


@dataclass(frozen=True)
class ShmGraphDescriptor:
    """Everything a worker needs to map one graph generation (picklable).

    The data segment's name is derived — ``{base_name}-g{epoch}`` — so the
    descriptor the coordinator sends with each epoch barrier names the
    segment to attach without any further coordination.  A non-``None``
    ``snapshot_path`` means this generation's payload lives in an on-disk
    snapshot file rather than a shared-memory segment: workers ``mmap`` the
    file instead of attaching ``data_name`` (the kernel page cache then
    plays the role of the shm segment — one physical copy machine-wide).
    """

    base_name: str
    epoch: int
    num_nodes: int
    num_edges: int
    snapshot_path: str | None = None

    @property
    def data_name(self) -> str:
        """Name of this generation's data segment."""
        return f"{self.base_name}-g{self.epoch}"


class SharedCSRGraph:
    """One CSR graph in shared memory, versioned by a generation number.

    Construct with :meth:`create` or :meth:`from_snapshot` (owner /
    coordinator side) or :meth:`attach` (worker side); never directly.
    Both sides expose :attr:`graph` (a zero-copy :class:`CSRGraph`),
    :meth:`current_epoch`, and :meth:`close`; see the module docstring for
    the full protocol.
    """

    def __init__(self, base_name: str | None, owner: bool) -> None:
        self.base_name = base_name or f"psim-{os.getpid()}-{secrets.token_hex(4)}"
        self._owner = owner
        self._graph: CSRGraph | None = None
        self._descriptor: ShmGraphDescriptor | None = None
        # owner: every still-linked generation, by epoch; attachments keep
        # their one mapped generation in _data and never unlink
        self._segments: dict[int, shared_memory.SharedMemory] = {}
        self._data: shared_memory.SharedMemory | None = None
        self._finalizer = weakref.finalize(
            self, SharedCSRGraph._cleanup, self._segments
        )

    # ------------------------------------------------------------------ #
    # creator side
    # ------------------------------------------------------------------ #

    @classmethod
    def create(cls, graph, base_name: str | None = None) -> "SharedCSRGraph":
        """Publish ``graph`` as epoch 0 (see :meth:`publish`).

        A graph is copied into shared memory; a snapshot file path is
        mapped in place.  ``base_name`` defaults to a collision-resistant
        ``psim-…`` name; it must be unique machine-wide (shared-memory
        names are global).
        """
        shared = cls(base_name, owner=True)
        try:
            shared.publish(graph)
        except BaseException:
            shared.close()
            raise
        return shared

    @classmethod
    def from_snapshot(cls, path, base_name: str | None = None) -> "SharedCSRGraph":
        """Serve a graph straight from an on-disk snapshot file as epoch 0.

        The warm-attach path of the storage tier: instead of copying the CSR
        payload into a fresh shared-memory segment (O(m) writes before the
        first query), the coordinator ``mmap``\\ s the snapshot and publishes
        a descriptor carrying its path — workers map the same file, and the
        OS page cache keeps one physical copy no matter how many processes
        serve from it, surviving service restarts.  Mutations still work:
        the first :meth:`publish` writes a regular shm generation and
        :meth:`release_epoch` retires the mapping.
        """
        shared = cls(base_name, owner=True)
        shared._descriptor = shared._map_snapshot(path, 0)
        return shared

    def publish(self, graph) -> int:
        """Publish a new graph generation; returns its epoch.

        ``graph`` is a :class:`~repro.graph.DiGraph` or :class:`CSRGraph`,
        whose payload is copied into a fresh data segment (sizes may change
        between epochs) before the new descriptor replaces the old one, so
        nothing ever names a partially written generation.  Or it is the
        path of a complete snapshot file (a durable store's checkpoint),
        which then *is* the generation: nothing is copied, and workers
        ``mmap`` the file.  The previous generation stays valid until
        :meth:`release_epoch`.
        """
        if not self._owner:
            raise GraphError("only the creating SharedCSRGraph can publish")
        if not self._finalizer.alive:  # closed: a new segment would leak
            raise GraphError("SharedCSRGraph is closed")
        epoch = 0 if self._descriptor is None else self._descriptor.epoch + 1
        if isinstance(graph, (str, os.PathLike)):
            self._descriptor = self._map_snapshot(graph, epoch)
        else:
            self._descriptor = self._write_segment(as_csr(graph), epoch)
        self._graph = None  # rebuilt lazily against the new generation
        return epoch

    def _write_segment(self, csr: CSRGraph, epoch: int) -> ShmGraphDescriptor:
        """Copy ``csr`` into a fresh segment as generation ``epoch``."""
        descriptor = ShmGraphDescriptor(
            self.base_name, epoch, csr.num_nodes, csr.num_edges
        )
        layout, size = payload_layout(csr.num_nodes, csr.num_edges)
        segment = shared_memory.SharedMemory(
            name=descriptor.data_name, create=True, size=size
        )
        try:
            payload = csr.shm_payload()
            for field, dtype, offset, count in layout:
                view = np.ndarray(
                    (count,), dtype=dtype, buffer=segment.buf, offset=offset
                )
                view[:] = payload[field]
                del view  # release the buffer export before anyone closes
        except BaseException:
            # a failed payload write must not strand a *named* segment on
            # /dev/shm: nothing references it yet, so close and unlink here
            segment.close()
            segment.unlink()
            raise
        self._segments[epoch] = segment
        return descriptor

    def _map_snapshot(self, path, epoch: int) -> ShmGraphDescriptor:
        """Map snapshot file ``path`` as generation ``epoch``."""
        mapped = self._segments[epoch] = MappedSnapshot.open(path)
        return ShmGraphDescriptor(
            self.base_name, epoch, mapped.header.num_nodes,
            mapped.header.num_edges, snapshot_path=str(path),
        )

    def release_epoch(self, epoch: int) -> None:
        """Unlink one superseded generation (all workers have moved on)."""
        if not self._owner:
            raise GraphError("only the creating SharedCSRGraph can unlink")
        if epoch == self.current_epoch():
            raise GraphError(f"refusing to release the live epoch {epoch}")
        segment = self._segments.pop(epoch, None)
        if segment is not None:
            _close_segment(segment)
            segment.unlink()

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #

    @classmethod
    def attach(cls, descriptor: ShmGraphDescriptor) -> "SharedCSRGraph":
        """Map the generation named by ``descriptor`` (zero-copy, read-only)."""
        shared = cls(descriptor.base_name, owner=False)
        shared._map_data(descriptor)
        return shared

    def reattach(self, descriptor: ShmGraphDescriptor) -> None:
        """Move this attachment to a newer generation.

        The caller must have dropped every reference into the old graph
        (estimators, result views) first; the old mapping is closed, never
        unlinked.
        """
        if self._owner:
            raise GraphError("the creating side never reattaches; use publish")
        old = self._data
        self._graph = None
        self._descriptor = None
        self._data = None
        if old is not None:
            _close_segment(old)
        self._map_data(descriptor)

    def _map_data(self, descriptor: ShmGraphDescriptor) -> None:
        if descriptor.snapshot_path is not None:
            self._data = MappedSnapshot.open(descriptor.snapshot_path)
        else:
            self._data = shared_memory.SharedMemory(name=descriptor.data_name)
        self._descriptor = descriptor

    # ------------------------------------------------------------------ #
    # both sides
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> CSRGraph:
        """Zero-copy CSR snapshot of the generation this handle is on."""
        if self._graph is None:
            descriptor = self.descriptor
            segment = (
                self._segments[descriptor.epoch] if self._owner else self._data
            )
            self._graph = CSRGraph.from_payload(
                segment.buf, descriptor.num_nodes, descriptor.num_edges
            )
        return self._graph

    @property
    def descriptor(self) -> ShmGraphDescriptor:
        """Descriptor of the generation this handle is mapped to."""
        if self._descriptor is None:
            raise GraphError("SharedCSRGraph is closed")
        return self._descriptor

    def current_epoch(self) -> int:
        """The generation this handle serves (the owner's latest publish)."""
        return self.descriptor.epoch

    def payload_bytes(self) -> int:
        """Bytes of shared adjacency payload in the live generation."""
        _, size = payload_layout(
            self.descriptor.num_nodes, self.descriptor.num_edges
        )
        return size

    def close(self) -> None:
        """Release this side's mappings; the owner also unlinks everything.

        Idempotent.  Unlinking is unconditional for the owner — even if a
        pinned numpy view keeps a *mapping* alive, the named segments are
        removed from the system so nothing leaks past the service.
        """
        self._graph = None
        self._descriptor = None
        self._finalizer.detach()
        self._cleanup(self._segments)  # empty on an attachment
        self._segments.clear()
        if self._data is not None:
            _close_segment(self._data)
            self._data = None

    @staticmethod
    def _cleanup(segments) -> None:
        """Finalizer body: shared with :meth:`close` (must not touch self)."""
        for segment in segments.values():
            _close_segment(segment)
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedCSRGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._descriptor is None else f"epoch={self.current_epoch()}"
        role = "owner" if self._owner else "attachment"
        return f"SharedCSRGraph({self.base_name!r}, {role}, {state})"
