"""Zero-copy CSR graph snapshots in POSIX shared memory.

The process-parallel serving layer (:mod:`repro.parallel.pool`) separates
compute from data the way shared-data HTAP systems do: every worker process
answers queries against the *same* physical adjacency arrays, mapped
read-only into its address space, instead of each worker pickling and
copying the graph.  :class:`SharedCSRGraph` is that shared-data half:

Creator side (the service coordinator)
    :meth:`SharedCSRGraph.create` packs a :class:`~repro.graph.csr.CSRGraph`
    snapshot's adjacency payload (``SHM_LAYOUT`` order) into one
    ``multiprocessing.shared_memory`` segment per graph *generation*, plus a
    tiny control segment holding the current generation counter (the
    *epoch*).  After graph mutations, :meth:`SharedCSRGraph.publish` writes
    the new snapshot into a fresh segment and bumps the epoch; the old
    segment stays mapped until every worker has moved over
    (:meth:`SharedCSRGraph.release_epoch`), so readers never observe a
    half-written graph.

Worker side
    :meth:`SharedCSRGraph.attach` maps the segment named by a (picklable)
    :class:`ShmGraphDescriptor` and rebuilds a :class:`CSRGraph` whose
    arrays are views straight into the shared buffer — no copy, O(1)
    regardless of graph size.  :meth:`SharedCSRGraph.stale` compares the
    attached epoch against the control segment's live counter, so workers
    detect graph epochs without any message traffic;
    :meth:`SharedCSRGraph.reattach` moves an attachment to a newer
    generation.

Edge-delta log (the O(Δ) maintenance path)
    Publishing a fresh generation costs O(m) — the right price for a bulk
    replacement, the wrong one for a handful of edge updates.  A
    ``SharedCSRGraph`` created with ``delta_capacity > 0`` therefore also
    carries one *delta log* segment (``{base_name}-dlog``): a bounded
    append-only array of ``(kind, source, target)`` triples shared by every
    generation.  The owner :meth:`append_deltas` small update bursts and
    readers :meth:`read_deltas` them zero-copy, applying the deltas to
    worker-local state in place instead of remapping a whole new CSR
    generation.  The published entry count lives in the control segment and
    is bumped only *after* the triples are written, so readers never see a
    torn entry.  :meth:`publish` (compaction: the log overflowed, or a bulk
    change arrived) folds everything into a fresh CSR generation and resets
    the log to empty.

Lifecycle discipline
    Segments are named (they outlive processes), so leak hygiene matters:
    the creator owns unlinking, does it in :meth:`close`, and carries a
    ``weakref.finalize`` safety net so dropping the last reference — or a
    crashing coordinator unwinding the interpreter — still removes every
    segment.  Attachments never unlink.  Python's ``resource_tracker`` (one
    process shared by the whole tree, set-keyed) is left alone: the owner's
    ``unlink`` unregisters each name exactly once, and if the coordinator is
    killed outright the tracker unlinks the leftovers — a second safety net.
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
from repro.graph.dynamic import EdgeUpdate
from repro.storage.snapshot import MappedSnapshot

__all__ = ["ShmGraphDescriptor", "SharedCSRGraph"]

#: control segment payload: int64 epoch counter + int64 delta-log count.
_CONTROL_BYTES = 16

#: delta-log entry: (kind, source, target) int64 triples; kind codes below.
_DELTA_FIELDS = 3
_DELTA_KINDS = ("insert", "delete")


def _segment_layout(num_nodes: int, num_edges: int):
    """``[(field, dtype, offset, count)]`` for one generation's data segment.

    Identical to the on-disk snapshot payload by construction — both sides
    delegate to :func:`repro.graph.csr.payload_layout`, which is what lets a
    :class:`~repro.storage.snapshot.MappedSnapshot` stand in for a
    shared-memory segment byte for byte.
    """
    return payload_layout(num_nodes, num_edges)


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

    The data segment's name is derived — ``{base_name}-g{epoch}`` — so a
    worker that learns a newer epoch (from the control counter) can attach
    the matching segment without any further coordination.
    ``delta_capacity > 0`` tells the worker to also map the (per-base,
    generation-independent) edge-delta log segment.  A non-``None``
    ``snapshot_path`` means this generation's payload lives in an on-disk
    snapshot file rather than a shared-memory segment: workers ``mmap`` the
    file instead of attaching ``data_name`` (the kernel page cache then
    plays the role of the shm segment — one physical copy machine-wide).
    """

    base_name: str
    epoch: int
    num_nodes: int
    num_edges: int
    delta_capacity: int = 0
    snapshot_path: str | None = None

    @property
    def data_name(self) -> str:
        """Name of this generation's data segment."""
        return f"{self.base_name}-g{self.epoch}"

    @property
    def delta_name(self) -> str:
        """Name of the shared edge-delta log segment."""
        return f"{self.base_name}-dlog"


class SharedCSRGraph:
    """One CSR graph in shared memory, versioned by a generation counter.

    Construct with :meth:`create` (owner / coordinator side) or
    :meth:`attach` (worker side); never directly.  Both sides expose
    :attr:`graph` (a zero-copy :class:`CSRGraph`), :meth:`current_epoch`,
    and :meth:`close`; see the module docstring for the full protocol.
    """

    def __init__(self, base_name: str, control, owner: bool) -> None:
        self.base_name = base_name
        self._control = control
        self._owner = owner
        self._control_view: np.ndarray | None = np.ndarray(
            (2,), dtype=np.int64, buffer=control.buf
        )
        self._graph: CSRGraph | None = None
        self._descriptor: ShmGraphDescriptor | None = None
        # owner: every still-linked generation (plus the "dlog" segment);
        # attachment: current data seg
        self._segments: dict[int | str, shared_memory.SharedMemory] = {}
        self._data: shared_memory.SharedMemory | None = None
        self._dlog: shared_memory.SharedMemory | None = None
        self._delta_view: np.ndarray | None = None
        self.delta_capacity = 0
        self._finalizer = weakref.finalize(
            self, SharedCSRGraph._cleanup, base_name, control,
            self._segments, owner,
        )

    # ------------------------------------------------------------------ #
    # creator side
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls, graph, base_name: str | None = None, delta_capacity: int = 0
    ) -> "SharedCSRGraph":
        """Place ``graph``'s CSR snapshot in shared memory as epoch 0.

        ``base_name`` defaults to a collision-resistant ``psim-…`` name; it
        must be unique machine-wide (shared-memory names are global).
        ``delta_capacity > 0`` additionally allocates the bounded edge-delta
        log segment (that many ``(kind, source, target)`` entries).
        """
        return cls._create_owner(
            base_name, delta_capacity, lambda shared: shared.publish(graph)
        )

    @classmethod
    def _create_owner(
        cls, base_name: str | None, delta_capacity: int, place_epoch0
    ) -> "SharedCSRGraph":
        """Control segment, optional delta log, then ``place_epoch0(shared)``;
        on any failure every segment made so far is unlinked."""
        base_name = base_name or f"psim-{os.getpid()}-{secrets.token_hex(4)}"
        control = shared_memory.SharedMemory(
            name=base_name, create=True, size=_CONTROL_BYTES
        )
        shared = cls(base_name, control, owner=True)
        try:
            shared._control_view[:] = (-1, 0)
            if delta_capacity < 0:
                raise GraphError(
                    f"delta_capacity must be >= 0, got {delta_capacity}"
                )
            if delta_capacity:
                shared.delta_capacity = int(delta_capacity)
                dlog = shared_memory.SharedMemory(
                    name=f"{base_name}-dlog", create=True,
                    size=delta_capacity * _DELTA_FIELDS * 8,
                )
                shared._segments["dlog"] = dlog
                shared._map_delta_log(dlog)
            place_epoch0(shared)
        except BaseException:
            shared.close()
            raise
        return shared

    @classmethod
    def from_snapshot(
        cls,
        path,
        base_name: str | None = None,
        delta_capacity: int = 0,
    ) -> "SharedCSRGraph":
        """Serve a graph straight from an on-disk snapshot file as epoch 0.

        The warm-attach path of the storage tier: instead of copying the CSR
        payload into a fresh shared-memory segment (O(m) writes before the
        first query), the coordinator ``mmap``\\ s the snapshot and publishes
        a descriptor carrying its path — workers map the same file, and the
        OS page cache keeps one physical copy no matter how many processes
        serve from it, surviving service restarts.  Mutations still work:
        the first :meth:`publish` (compaction) writes a regular shm
        generation and retires the mapping, and ``delta_capacity`` carries
        small bursts exactly as with :meth:`create`.
        """
        def map_snapshot(shared: "SharedCSRGraph") -> None:
            mapped = MappedSnapshot.open(path)
            shared._segments[0] = mapped
            shared._descriptor = ShmGraphDescriptor(
                shared.base_name, 0, mapped.header.num_nodes,
                mapped.header.num_edges, shared.delta_capacity,
                snapshot_path=str(path),
            )
            shared._control_view[0] = 0

        return cls._create_owner(base_name, delta_capacity, map_snapshot)

    def publish(self, graph) -> int:
        """Write a new graph generation and bump the epoch counter.

        Allocates a fresh data segment (sizes may change between epochs),
        copies the snapshot's payload in, and only then publishes the new
        epoch in the control segment — workers polling :meth:`stale` can
        never land on a partially written generation.  The previous
        generation's segment remains valid until :meth:`release_epoch`.
        Returns the new epoch.
        """
        if not self._owner:
            raise GraphError("only the creating SharedCSRGraph can publish")
        csr = as_csr(graph)
        epoch = self.current_epoch() + 1
        descriptor = ShmGraphDescriptor(
            self.base_name, epoch, csr.num_nodes, csr.num_edges,
            self.delta_capacity,
        )
        layout, size = _segment_layout(csr.num_nodes, csr.num_edges)
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
        self._descriptor = descriptor
        self._graph = None  # rebuilt lazily against the new generation
        # the fresh generation subsumes every logged delta: empty the log
        # first so no reader can pair the new epoch with stale entries
        self._control_view[1] = 0
        self._control_view[0] = epoch
        return epoch

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
        control = shared_memory.SharedMemory(name=descriptor.base_name)
        shared = cls(descriptor.base_name, control, owner=False)
        try:
            shared._map_data(descriptor)
            if descriptor.delta_capacity:
                shared.delta_capacity = int(descriptor.delta_capacity)
                shared._map_delta_log(
                    shared_memory.SharedMemory(name=descriptor.delta_name)
                )
        except BaseException:
            shared.close()
            raise
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
        self._data = None
        if old is not None:
            _close_segment(old)
        self._map_data(descriptor)

    def _map_data(self, descriptor: ShmGraphDescriptor) -> None:
        if descriptor.snapshot_path is not None:
            segment = MappedSnapshot.open(descriptor.snapshot_path)
        else:
            segment = shared_memory.SharedMemory(name=descriptor.data_name)
        self._data = segment
        self._descriptor = descriptor
        self._graph = self._view_graph(segment, descriptor)

    # ------------------------------------------------------------------ #
    # edge-delta log
    # ------------------------------------------------------------------ #

    def _map_delta_log(self, segment: shared_memory.SharedMemory) -> None:
        self._dlog = segment
        self._delta_view = np.ndarray(
            (self.delta_capacity, _DELTA_FIELDS), dtype=np.int64,
            buffer=segment.buf,
        )

    def delta_count(self) -> int:
        """Published entries currently in the shared edge-delta log."""
        if self._control_view is None:
            raise GraphError("SharedCSRGraph is closed")
        return int(self._control_view[1])

    def append_deltas(self, updates) -> tuple[int, int]:
        """Append ``updates`` to the shared log; returns their ``[start, stop)``.

        Owner-only.  The triples are written before the published count is
        bumped, so a concurrent :meth:`read_deltas` can never observe a
        half-written entry.  Raises :class:`GraphError` when the bounded log
        cannot hold the burst — the caller's cue to compact via
        :meth:`publish` instead.
        """
        if not self._owner:
            raise GraphError("only the creating SharedCSRGraph can append deltas")
        if self._delta_view is None:
            raise GraphError("this SharedCSRGraph carries no delta log")
        updates = list(updates)
        start = self.delta_count()
        stop = start + len(updates)
        if stop > self.delta_capacity:
            raise GraphError(
                f"delta log overflow: {len(updates)} updates do not fit in "
                f"{self.delta_capacity - start} free entries — compact by "
                "publishing a fresh generation"
            )
        for row, update in enumerate(updates, start=start):
            self._delta_view[row] = (
                _DELTA_KINDS.index(update.kind), update.source, update.target
            )
        self._control_view[1] = stop
        return start, stop

    def read_deltas(self, start: int, stop: int) -> tuple[EdgeUpdate, ...]:
        """The logged updates in ``[start, stop)``, as :class:`EdgeUpdate`\\ s."""
        if self._delta_view is None:
            raise GraphError("this SharedCSRGraph carries no delta log")
        if not 0 <= start <= stop <= self.delta_count():
            raise GraphError(
                f"delta range [{start}, {stop}) outside the published log "
                f"[0, {self.delta_count()})"
            )
        return tuple(
            EdgeUpdate(_DELTA_KINDS[int(kind)], int(source), int(target))
            for kind, source, target in self._delta_view[start:stop]
        )

    # ------------------------------------------------------------------ #
    # both sides
    # ------------------------------------------------------------------ #

    @staticmethod
    def _view_graph(segment, descriptor: ShmGraphDescriptor) -> CSRGraph:
        """A :class:`CSRGraph` whose arrays are views into ``segment``."""
        layout, _ = _segment_layout(descriptor.num_nodes, descriptor.num_edges)
        views = {
            field: np.ndarray(
                (count,), dtype=dtype, buffer=segment.buf, offset=offset
            )
            for field, dtype, offset, count in layout
        }
        return CSRGraph(
            descriptor.num_nodes,
            views["out_indptr"],
            views["out_indices"],
            views["in_indptr"],
            views["in_indices"],
        )

    @property
    def graph(self) -> CSRGraph:
        """Zero-copy CSR snapshot of the generation this handle is on."""
        if self._graph is None:
            if self._owner:
                epoch = self.current_epoch()
                self._graph = self._view_graph(
                    self._segments[epoch], self._descriptor
                )
            else:
                raise GraphError("attachment is closed")
        return self._graph

    @property
    def descriptor(self) -> ShmGraphDescriptor:
        """Descriptor of the generation this handle is mapped to."""
        if self._descriptor is None:
            raise GraphError("SharedCSRGraph is closed")
        return self._descriptor

    def current_epoch(self) -> int:
        """The live generation counter (read from the control segment)."""
        if self._control_view is None:
            raise GraphError("SharedCSRGraph is closed")
        return int(self._control_view[0])

    def stale(self) -> bool:
        """True when a newer generation has been published than is mapped."""
        return self.current_epoch() != self.descriptor.epoch

    def payload_bytes(self) -> int:
        """Bytes of shared adjacency payload in the live generation."""
        _, size = _segment_layout(
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
        self._control_view = None
        self._delta_view = None
        self._descriptor = None
        self._finalizer.detach()
        if self._owner:
            self._cleanup(self.base_name, self._control, self._segments, True)
            self._segments = {}
            self._dlog = None
        else:
            if self._data is not None:
                _close_segment(self._data)
                self._data = None
            if self._dlog is not None:
                _close_segment(self._dlog)
                self._dlog = None
            _close_segment(self._control)

    @staticmethod
    def _cleanup(base_name, control, segments, owner) -> None:
        """Finalizer body: shared with :meth:`close` (must not touch self)."""
        if not owner:  # pragma: no cover - attachments clean up in close()
            return
        for segment in segments.values():
            _close_segment(segment)
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        _close_segment(control)
        try:
            control.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedCSRGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._control_view is None else f"epoch={self.current_epoch()}"
        role = "owner" if self._owner else "attachment"
        return f"SharedCSRGraph({self.base_name!r}, {role}, {state})"
