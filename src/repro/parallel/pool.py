"""Process-parallel SimRank serving over a shared-memory graph.

:class:`ParallelSimRankService` is the one query/maintenance
implementation (``single_source`` / ``topk`` / ``single_source_many`` /
``topk_many`` / ``apply_edges`` / ``sync``).  Queries execute on a
persistent pool of **worker processes**, so sustained throughput scales
with cores instead of being GIL-bound; its one-worker in-process form is
:class:`~repro.api.service.SimRankService`.  The design separates shared
data from per-worker compute:

Shared graph
    The coordinator owns one :class:`~repro.parallel.shm.SharedCSRGraph`;
    every worker maps the adjacency arrays zero-copy
    (:mod:`repro.parallel.shm`).  Graph mutations stay coordinator-side;
    :meth:`ParallelSimRankService.sync` publishes a new graph *epoch* and
    barriers every worker onto it before the old generation is released,
    so readers never see a half-applied update batch.  Where a generation
    lives depends on the graph source: an in-memory graph is copied into a
    shared-memory segment per epoch; a ``snapshot=`` file is mapped as it
    is; a durable ``store=`` pool publishes each of the store's checkpoint
    files, so the persisted copy is the one the workers serve and nothing
    is written twice.

Worker replicas
    Each worker builds its own estimator replica per mounted method, seeded
    ``base_seed + worker_index``, and rebuilds them at every epoch.  With
    an integer seed every query draws from its own ``(seed, query)``
    stream (:func:`repro.utils.rng.query_stream`), so an answer is a pure
    function of the replica's config, its graph state and the query.

Deterministic dispatch
    Every query is a batch: a lone ``single_source`` or ``topk`` is a
    batch of one.  Batches are deduplicated, probed against the result
    cache, and the misses split positionally (``misses[w::workers]``)
    across workers, so a lone miss always lands on worker 0; every
    worker consumes its share in order and results merge back in global
    batch order.  Results are therefore bit-identical across runs, and
    bit-identical to ``executor="sequential"``, which runs the same
    partition and maintenance schedule in-process (the oracle the
    correctness suite compares against).  Every worker times each op it answers and returns that time with the
    answer (:meth:`ParallelSimRankService.single_source_many_timed`).

Crash recovery
    A worker that dies mid-flight is respawned, built against the live
    epoch's graph generation, and sent the epoch's delta stream again; the
    pending share is then re-dispatched.  Queries leave no replica state
    behind (their draws are keyed by query), and a replica's own stream
    only feeds its build and its ``apply_updates`` — a function of the
    seed, the epoch graph and the delta stream.  So the replacement is the
    dead worker's twin, and a crash changes no answer, only latency.

Result caching
    An update-aware LRU (:mod:`repro.parallel.cache`) keyed
    ``(method, query, epoch)`` answers repeat hot-key queries without
    touching a worker; full rebuilds invalidate whole generations, delta
    syncs invalidate only the touched neighborhood.
    :meth:`~ParallelSimRankService.cached` reads it without dispatching,
    which is how the HTTP front door answers hits on its event loop.
    Note the cache returns the *first* computed estimate for a key — for
    randomized estimators any sample within the ``eps_a`` guarantee is a
    valid answer, so hits stay inside the paper's accuracy contract.

Delta maintenance (O(Δ) instead of O(m) per update burst)
    When every mounted method's registry entry declares
    ``incremental_updates`` (TSF's one-way-graph patching,
    the walk cache's fine-grained eviction), :meth:`~ParallelSimRankService.sync`
    does not republish the graph at all.  The burst rides in a
    ``("delta", updates)`` RPC to every worker (on every executor), which
    applies it in place to its local graph mirror and notifies its replicas
    via ``apply_updates``.  The coordinator keeps the bursts shipped since
    the live epoch was published, so a revived worker can be sent them
    again.  The graph epoch stays put, so cached answers for untouched
    query nodes stay warm
    (:meth:`~repro.parallel.cache.ResultCache.invalidate_nodes` drops only
    the updated edges' 1-hop neighborhood).  Once :data:`COMPACT_AFTER`
    updates have been shipped since the epoch the service *compacts*: one
    ordinary epoch rebuild folds every shipped delta into a fresh CSR
    generation and empties that record.  The ``maintenance`` knob selects
    the path —
    ``"rebuild"`` forces epochs, ``"delta"`` requires incremental-capable
    mounts, ``"auto"`` (default) picks delta exactly when every mount
    supports it.

Methods whose registry capabilities set ``parallel_safe=False``
(rebuild-heavy static indexes) are rejected at mount time on a pool of
more than one worker; a one-worker pool has no per-worker rebuild to
multiply.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.api.registry import get_entry
from repro.errors import ConfigurationError, QueryError
from repro.graph.csr import CSRGraph, as_csr
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import EdgeUpdate, apply_update, touched_neighborhood
from repro.parallel.cache import ResultCache
from repro.parallel.shm import SharedCSRGraph
from repro.storage.snapshot import MappedSnapshot, attach_snapshot
from repro.utils.validation import check_positive_int, check_query_node

__all__ = [
    "ParallelSimRankService",
    "ServiceStats",
    "WorkerCrashed",
    "derive_replica_config",
]

#: executors the service can run its workers on.
EXECUTORS = ("process", "sequential")

#: maintenance paths the service can run updates through.
MAINTENANCE_MODES = ("auto", "delta", "rebuild")

#: ``multiprocessing`` start method of the process executor.
START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"

#: seconds to wait on a worker reply before the worker is treated as hung
#: and replaced (a liveness backstop, not a latency budget).
RPC_TIMEOUT = 300.0

#: seconds an idle worker process waits for a message before it checks
#: that its coordinator is still alive (and exits if it is not).
PARENT_POLL = 1.0

#: delta updates shipped since the live epoch after which a sync compacts
#: (publishes a fresh generation) instead of shipping one more burst; it
#: bounds a revived worker's replay and each worker mirror's drift from
#: the shared CSR.
COMPACT_AFTER = 256


class WorkerCrashed(RuntimeError):
    """Internal signal: a worker process died; the dispatcher will revive it."""


def derive_replica_config(entry, config: dict, worker: int) -> dict:
    """Per-replica method configuration: offset the seed by ``worker``.

    Replica ``i`` of any run draws the same RNG stream on every executor,
    so executors agree query-for-query.
    """
    config = dict(config)
    if "seed" in entry.config_keys:
        base = config.get("seed", 0) or 0
        config["seed"] = int(base) + worker
    return config


@dataclass
class ServiceStats:
    """Operational counters of one serving instance.

    ``maintenance_seconds`` accumulates wall-clock maintenance cost *per
    mounted method name*: each sync's wall-clock is split evenly across the
    mounted methods, so a workload driver can charge each estimator its own
    index-upkeep bill (the comparison the paper's dynamic argument is
    about).
    """

    queries: int = 0
    batches: int = 0
    batched_queries: int = 0
    batched_unique: int = 0
    updates_applied: int = 0
    #: maintenance syncs that shipped updates, whichever path each took
    syncs: int = 0
    #: per-method update notifications shipped by delta syncs
    incremental_notifications: int = 0
    #: graph generations published, i.e. full-rebuild syncs
    epochs: int = 0
    #: syncs served by O(Δ) delta propagation instead of an epoch rebuild
    delta_syncs: int = 0
    #: edge updates shipped through the delta path
    delta_updates: int = 0
    #: crashed or hung workers replaced (worker processes only)
    worker_restarts: int = 0
    maintenance_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def batch_dedup_saved(self) -> int:
        """Queries answered from a batch-mate's result instead of recomputed."""
        return self.batched_queries - self.batched_unique

    @property
    def total_maintenance_seconds(self) -> float:
        """Maintenance wall-clock summed over every mounted method."""
        return sum(self.maintenance_seconds.values())

    def charge_maintenance(self, method: str, seconds: float) -> None:
        """Accumulate ``seconds`` of maintenance against ``method``."""
        self.maintenance_seconds[method] = (
            self.maintenance_seconds.get(method, 0.0) + seconds
        )

    def as_row(self) -> dict[str, object]:
        """Flat dict row for table rendering."""
        return {
            "queries": self.queries,
            "batches": self.batches,
            "dedup_saved": self.batch_dedup_saved,
            "updates": self.updates_applied,
            "syncs": self.syncs,
            "delta_syncs": self.delta_syncs,
            "maintenance_s": self.total_maintenance_seconds,
        }


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #


class _WorkerCore:
    """One worker's estimator replicas; the logic shared by every executor.

    ``source`` is either a :class:`~repro.parallel.shm.ShmGraphDescriptor`
    (process executor — the core maps the generation's shared-memory
    segment or snapshot file) or a :class:`CSRGraph` (sequential executor
    — used directly).  Everything downstream of that choice is identical,
    which is what makes the sequential executor a bit-exact oracle for the
    process executor.
    """

    def __init__(self, worker_index: int) -> None:
        self.worker_index = worker_index
        self.shared: SharedCSRGraph | None = None
        self.csr: CSRGraph | None = None
        self.mirror: DiGraph | None = None
        self.delta_mode = False
        self.estimators: dict[str, object] = {}
        self.mounts: list[tuple[str, str, dict]] = []

    def _graph_from(self, source) -> CSRGraph:
        if isinstance(source, CSRGraph):
            return source
        if self.shared is None:
            self.shared = SharedCSRGraph.attach(source)
        else:
            self.shared.reattach(source)
        return self.shared.graph

    def build(
        self,
        source,
        mounts: list[tuple[str, str, dict]],
        delta_mode: bool = False,
    ) -> None:
        """Mount every replica against ``source``.

        Under ``delta_mode`` the replicas are built on a worker-local
        *mutable mirror* of the snapshot (``CSRGraph.to_digraph``) instead
        of the frozen arrays: incremental estimators read the live graph
        when notified, so the mirror is what :meth:`apply_delta` mutates in
        place.  The mirror's adjacency is in canonical CSR order, which is
        what makes replicas agree bit-for-bit across executors.
        """
        self.mounts = list(mounts)
        self.delta_mode = bool(delta_mode)
        # drop old replicas AND the old graph before reattaching: the old
        # segment is unmapped underneath any view that survives this point
        self.estimators = {}
        self.csr = None
        self.mirror = None
        self.csr = self._graph_from(source)
        target = self.csr
        if self.delta_mode:
            self.mirror = self.csr.to_digraph()
            target = self.mirror
        for key, name, config in self.mounts:
            self.estimators[key] = get_entry(name).build(target, **config)

    def rebuild(self, source) -> None:
        """Epoch bump: reattach the new generation and rebuild replicas."""
        self.build(source, self.mounts, self.delta_mode)

    def apply_delta(self, updates: Sequence[EdgeUpdate]) -> None:
        """Absorb an update burst in place: O(Δ), no replica rebuild.

        Each update first mutates the local graph mirror, then every
        replica is notified with that single update (estimators read the
        post-update graph).
        """
        if self.mirror is None:
            raise QueryError(
                "delta RPC on a worker built without delta maintenance"
            )
        for update in updates:
            apply_update(self.mirror, update)
            for key, _, _ in self.mounts:
                self.estimators[key].apply_updates([update])

    def query(self, key: str, ops):
        """Answer ``(op_id, node)`` single-source ops in order with the
        ``key`` replica.

        Returns ``(op_id, result, seconds)`` triples: each op's own
        wall-clock time rides back with its answer, so the coordinator can
        report per-op latency rather than a batch mean.
        """
        estimator = self.estimators[key]
        records = []
        for op_id, node in ops:
            started = time.perf_counter()
            result = estimator.single_source(node)
            records.append((op_id, result, time.perf_counter() - started))
        return records

    def handle(self, command: str, payload):
        """Run one RPC; returns the reply payload (``None`` but for queries)."""
        if command == "query":
            return self.query(*payload)
        if command == "build":
            self.build(*payload)
        elif command == "epoch":
            self.rebuild(payload)
        elif command == "delta":
            self.apply_delta(payload)
        elif command != "exit":
            raise ValueError(f"unknown command {command!r}")
        return None

    def shutdown(self) -> None:
        self.estimators = {}
        self.csr = None
        if self.shared is not None:
            self.shared.close()
            self.shared = None


def _worker_main(conn, worker_index: int) -> None:  # pragma: no cover
    """Process-executor entry point: serve RPCs until ``exit``, EOF or orphaning.

    Estimator-level exceptions are caught and shipped back as ``("error",
    …)`` replies — the worker survives them; only interpreter-level faults
    (or ``kill -9``) take it down, and those the coordinator heals.

    A forked worker inherits the coordinator's pipe ends (its own and its
    earlier siblings'), so a coordinator killed by SIGKILL never shows up
    as EOF.  An idle worker therefore checks every :data:`PARENT_POLL`
    seconds that its parent is still the process that started it, and
    exits once it was reparented.

    (Excluded from coverage: this body runs inside worker processes, out of
    the tracer's sight; the multiprocess suite exercises it end to end and
    the sequential executor keeps the shared `_WorkerCore` logic measured.)
    """
    core = _WorkerCore(worker_index)
    parent = os.getppid()
    try:
        while True:
            try:
                if not conn.poll(PARENT_POLL):
                    if os.getppid() != parent:
                        break
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                break
            command, payload = message
            if command == "exit":
                conn.send(("ok", None))
                break
            try:
                reply = ("ok", core.handle(command, payload))
            except BaseException as exc:  # noqa: BLE001 - shipped to coordinator
                reply = ("error", (type(exc).__name__, str(exc), traceback.format_exc()))
            conn.send(reply)
    finally:
        core.shutdown()
        conn.close()


class _ProcessWorker:
    """Coordinator-side handle for one worker process (pipe + liveness)."""

    def __init__(self, ctx, index: int) -> None:
        self.index = index
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main, args=(child, index), daemon=True,
            name=f"repro-parallel-w{index}",
        )
        self.process.start()
        child.close()  # coordinator keeps only its end; EOF propagates cleanly

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(f"worker {self.index} pipe closed") from exc

    def recv(self, timeout: float):
        deadline = time.monotonic() + timeout
        while not self.conn.poll(0.02):
            if not self.process.is_alive():
                raise WorkerCrashed(f"worker {self.index} died")
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"worker {self.index} did not reply within {timeout}s"
                )
        try:
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrashed(f"worker {self.index} died mid-reply") from exc

    def close(self, force: bool = False) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if force and self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.join(timeout=5.0)


class _InlineWorker:
    """In-process handle (sequential executor): same RPC surface.

    ``send`` runs the RPC on the calling thread and holds its reply for
    ``recv``, so the pool's workers answer one after another.
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.core = _WorkerCore(index)
        self._reply = None

    def send(self, message) -> None:
        try:
            self._reply = ("ok", self.core.handle(*message))
        except Exception as exc:
            self._reply = (
                "error", (type(exc).__name__, str(exc), traceback.format_exc())
            )

    def recv(self, timeout: float):
        del timeout
        reply, self._reply = self._reply, None
        return reply

    def close(self, force: bool = False) -> None:
        del force
        self.core.shutdown()


# --------------------------------------------------------------------- #
# coordinator side
# --------------------------------------------------------------------- #


class ParallelSimRankService:
    """Multiprocess SimRank serving: shared graph, worker pool, result cache.

    The one service class: the workload driver, the HTTP front door and
    the one-worker :class:`~repro.api.service.SimRankService` all use it.

    >>> from repro.graph import DiGraph
    >>> g = DiGraph.from_edges([(0, 1), (1, 0), (2, 0), (2, 1)])
    >>> with ParallelSimRankService(
    ...     g, methods=("probesim",), workers=2, executor="sequential",
    ...     configs={"probesim": {"eps_a": 0.2, "seed": 7}},
    ... ) as service:
    ...     service.single_source(0).score(0)
    1.0

    Parameters
    ----------
    graph:
        A mutable :class:`DiGraph` (enables :meth:`apply_edges`) or a frozen
        :class:`CSRGraph` (read-only service).  May be ``None`` when the
        graph comes from ``snapshot`` or ``store`` instead.
    snapshot:
        Path to a :mod:`repro.storage.snapshot` file to serve *read-only*.
        The coordinator never rebuilds the CSR: the process executor
        publishes the snapshot path as epoch 0 and every worker ``mmap``\\ s
        the file (one page-cache copy machine-wide); the sequential
        executor maps it in-process.  Mutually exclusive with ``graph``
        and ``store``.
    store:
        An open :class:`~repro.storage.store.PersistentGraphStore` making
        this service *durable*: the graph is recovered from the store
        (``graph`` must be ``None``), every update burst is written ahead
        to the store's WAL before any worker sees it, and each rebuild sync
        (compaction) checkpoints a fresh snapshot generation before any
        worker is moved onto it.  The process executor serves the
        checkpoint files themselves (workers ``mmap`` the live one; no
        shared-memory segment), folding a WAL tail found at start-up into
        a checkpoint first; the coordinator's mutable graph is thawed only
        after the workers are forked.  After a crash,
        :func:`repro.storage.store.recover` lands exactly on the pre- or
        post-burst graph — never between.  The caller keeps ownership of
        the store handle (:meth:`close` does not close it).
    methods:
        Registry names to mount; each worker builds one replica per method.
        Methods whose registry capabilities declare ``parallel_safe=False``
        are rejected when ``workers > 1``.
    configs / default_method:
        Per-method keyword configuration ``{name: {key: value}}``, and the
        method a query with ``method=None`` uses (default: the first mount).
    workers:
        Pool width (positive).  Throughput scales with cores for the
        ``process`` executor; ``sequential`` ignores parallelism but keeps
        the identical dispatch schedule (the determinism oracle).
    cache_size:
        Capacity of the coordinator-side update-aware result cache
        (``0`` disables it).
    auto_sync:
        When True (default) :meth:`apply_edges` immediately publishes a new
        epoch; when False the caller flushes with :meth:`sync`.
    maintenance:
        Update-maintenance path: ``"rebuild"`` (every sync publishes a new
        graph epoch and rebuilds all replicas — O(m) per burst),
        ``"delta"`` (syncs ship the edge deltas and replicas absorb them in
        place via ``apply_updates`` — O(Δ); requires every mounted method's
        registry entry to declare ``incremental_updates`` and a mutable
        :class:`DiGraph`), or ``"auto"`` (default: delta exactly when every
        mount supports it).  See the module docstring for the full model.
    executor:
        ``"process"`` (default: worker processes over a shared graph) or
        ``"sequential"`` (in-process workers run one after another on the
        calling thread — the determinism oracle).  Both run the same
        dispatch and maintenance schedule, so their answers are
        bit-identical.  Worker processes
        start with :data:`START_METHOD` (``fork`` where available, else
        ``spawn``), and a worker silent for :data:`RPC_TIMEOUT` seconds is
        treated as hung and replaced.

    Always :meth:`close` the service (or use it as a context manager):
    that tears down the pool and unlinks the shared-memory segments (an
    in-memory graph's process pool is the only one that makes any).  A
    finalizer on the shared graph unlinks the segments even if ``close`` is
    never called, so crashes cannot leak ``/dev/shm`` entries.
    """

    def __init__(
        self,
        graph=None,
        methods: Sequence[str] = ("probesim",),
        configs: dict[str, dict] | None = None,
        default_method: str | None = None,
        workers: int = 2,
        cache_size: int = 0,
        auto_sync: bool = True,
        maintenance: str = "auto",
        executor: str = "process",
        snapshot=None,
        store=None,
    ) -> None:
        check_positive_int("workers", workers)
        if executor not in EXECUTORS:
            raise ConfigurationError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if snapshot is not None and (graph is not None or store is not None):
            raise ConfigurationError(
                "snapshot= serves a frozen file; pass it without graph/store"
            )
        if store is not None and graph is not None:
            raise ConfigurationError(
                "pass either graph or store=, not both — a durable service "
                "recovers its graph from the store"
            )
        if graph is None and snapshot is None and store is None:
            raise ConfigurationError("need one of graph, snapshot=, or store=")
        if maintenance not in MAINTENANCE_MODES:
            raise ConfigurationError(
                f"maintenance must be one of {MAINTENANCE_MODES}, "
                f"got {maintenance!r}"
            )
        if not methods:
            raise ConfigurationError("need at least one method to serve")
        configs = configs or {}
        unknown = sorted(set(configs) - set(methods))
        if unknown:
            raise ConfigurationError(
                f"configs given for unregistered service methods {unknown}"
            )
        self._graph = graph
        self.stats = ServiceStats()  # guarded-by: _stats_lock
        self._stats_lock = threading.Lock()
        self.workers = int(workers)
        self.executor = executor
        self.auto_sync = auto_sync
        self.cache = ResultCache(cache_size)
        self._digraph = graph if isinstance(graph, DiGraph) else None
        self._store = store
        self._mounts: dict[str, tuple[str, dict]] = {}
        for name in methods:
            if name in self._mounts:
                raise ConfigurationError(f"method {name!r} is mounted twice")
            entry = get_entry(name)
            if not entry.capabilities.parallel_safe and self.workers > 1:
                raise ConfigurationError(
                    f"method {name!r} is not parallel_safe (its per-worker "
                    "epoch rebuild is impractical); mount it on one worker"
                )
            config = dict(configs.get(name, {}))
            entry.check_config(config)  # fail fast here, not inside a worker build
            self._mounts[name] = (name, config)
        self._default = (
            next(iter(self._mounts)) if default_method is None else default_method
        )
        if self._default not in self._mounts:
            raise ConfigurationError(
                f"default_method {self._default!r} is not among "
                f"{sorted(self._mounts)}"
            )
        self._maintenance = self._resolve_maintenance(maintenance)

        self._epoch = 0
        self._graph_stale = False
        self._closed = False
        #: delta bursts shipped since the live epoch was published — the
        #: stream a revived worker is sent again after its build
        self._delta_payloads: list[tuple[EdgeUpdate, ...]] = []
        self._pending_updates: list[EdgeUpdate] = []
        self._touched_pending: set[int] = set()
        self._store_logged = 0  # pending updates already in the store's WAL
        self._snapshot_handle: MappedSnapshot | None = None
        self._shm: SharedCSRGraph | None = None
        self._csr: CSRGraph | None = None
        self._workers: list = []
        # one caller at a time per worker: in-process workers hold a single
        # reply slot, and a process worker's pipe carries one exchange
        self._dispatch_lock = threading.Lock()
        try:
            if snapshot is not None:
                # warm attach: the CSR is never rebuilt, the snapshot file
                # itself backs every mapping (coordinator and workers alike)
                if executor == "process":
                    self._shm = SharedCSRGraph.from_snapshot(snapshot)
                    self._epoch = self._shm.current_epoch()
                    self._num_nodes = self._shm.descriptor.num_nodes
                    self._graph = self._shm.graph
                else:
                    self._snapshot_handle = attach_snapshot(snapshot)
                    self._csr = self._snapshot_handle.graph()
                    self._num_nodes = self._csr.num_nodes
                    self._graph = self._csr
            elif store is not None:
                if store.wal_records:
                    # fold the tail in: the live checkpoint file is then
                    # the whole graph, ready to serve
                    store.checkpoint(store.materialize())
                if executor == "process":
                    self._shm = SharedCSRGraph.create(store.snapshot_file)
                    self._num_nodes = self._shm.descriptor.num_nodes
            else:
                csr = as_csr(graph)
                self._num_nodes = csr.num_nodes
                if executor == "process":
                    self._shm = SharedCSRGraph.create(csr)
                    self._epoch = self._shm.current_epoch()
                else:
                    self._csr = csr
            self._ctx = multiprocessing.get_context(START_METHOD)
            for index in range(self.workers):
                self._workers.append(self._spawn(index))
            if store is not None:
                # thawed only once the workers are forked, so none of them
                # inherits a copy of the coordinator's mutable graph
                self._digraph = self._graph = store.materialize()
                if self._shm is None:
                    self._csr = as_csr(self._digraph)
                    self._num_nodes = self._csr.num_nodes
            for index in range(self.workers):
                self._build_worker(index)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # pool plumbing
    # ------------------------------------------------------------------ #

    @property
    def graph(self):
        """The graph this service owns."""
        return self._graph

    @property
    def methods(self) -> list[str]:
        """Names the service can answer with, sorted."""
        return sorted(self._mounts)

    def _resolve_method(self, method: str | None) -> str:
        """Normalise ``method`` (default when None) to a mounted key."""
        key = method or self._default
        if key not in self._mounts:
            raise ConfigurationError(
                f"service has no method {key!r}; available: {self.methods}"
            )
        return key

    def _resolve_maintenance(self, requested: str) -> str:
        """Resolve the ``maintenance`` knob to ``"delta"`` or ``"rebuild"``.

        Delta maintenance is sound only when every replica can absorb an
        update in place — i.e. every mounted method declares
        ``incremental_updates`` — and when there is a mutable graph to
        produce updates at all.  ``"auto"`` degrades to ``"rebuild"``
        quietly; an explicit ``"delta"`` request that cannot be honoured is
        a configuration error, not a silent downgrade.
        """
        mutable = self._digraph is not None or self._store is not None
        non_incremental = sorted(
            key for key, (name, _) in self._mounts.items()
            if not get_entry(name).capabilities.incremental_updates
        )
        if requested == "rebuild":
            return "rebuild"
        if requested == "delta":
            if non_incremental:
                raise ConfigurationError(
                    "maintenance='delta' needs every mounted method to "
                    "support incremental_updates; these do not: "
                    f"{non_incremental}"
                )
            if not mutable:
                raise ConfigurationError(
                    "maintenance='delta' needs a mutable DiGraph; this "
                    "service owns a frozen snapshot"
                )
            return "delta"
        return "delta" if not non_incremental and mutable else "rebuild"

    @property
    def maintenance(self) -> str:
        """The resolved maintenance path: ``"delta"`` or ``"rebuild"``."""
        return self._maintenance

    def _spawn(self, index: int):
        if self.executor == "process":
            return _ProcessWorker(self._ctx, index)
        return _InlineWorker(index)

    def _worker_source(self):
        """What workers build against: a descriptor (process) or the CSR."""
        if self._shm is not None:
            return self._shm.descriptor
        return self._csr

    def _worker_mounts(self, index: int) -> list[tuple[str, str, dict]]:
        return [
            (key, name, derive_replica_config(get_entry(name), config, index))
            for key, (name, config) in self._mounts.items()
        ]

    def _build_worker(self, index: int) -> None:
        worker = self._workers[index]
        worker.send((
            "build",
            (
                self._worker_source(),
                self._worker_mounts(index),
                self._maintenance == "delta",
            ),
        ))
        self._expect_ok(worker.recv(RPC_TIMEOUT))

    def _revive(self, index: int) -> None:
        """Respawn a dead worker at the live graph state.

        The replacement builds against the live epoch's source, then
        absorbs the delta bursts shipped since that epoch was published,
        in order.  That is all the state a replica carries: queries draw
        from per-query streams, so no query history needs replaying.
        """
        self._workers[index].close(force=True)
        self._workers[index] = self._spawn(index)
        self._build_worker(index)
        worker = self._workers[index]
        for burst in self._delta_payloads:
            worker.send(("delta", burst))
            self._expect_ok(worker.recv(RPC_TIMEOUT))
        with self._stats_lock:
            self.stats.worker_restarts += 1

    def _rebarrier(self) -> None:
        """Rebuild every worker against the freshly published source.

        The new generation folds every shipped delta in, so the epoch's
        delta stream is dropped first: a worker revived during this very
        barrier must not re-apply it.
        """
        self._delta_payloads = []
        source = self._worker_source()
        self._rpc_all({w: ("epoch", source) for w in range(self.workers)})

    def _expect_ok(self, reply):
        status, payload = reply
        if status == "ok":
            return payload
        name, message, trace = payload
        raise QueryError(
            f"worker raised {name}: {message}\n--- worker traceback ---\n{trace}"
        )

    def _rpc_all(self, assignments: dict[int, tuple]) -> dict[int, object]:
        """Send one message per worker, gather replies, healing crashes.

        ``assignments`` maps worker index → message.  Crashed (or hung —
        :data:`RPC_TIMEOUT` is the liveness backstop) workers are revived and
        their message re-sent.  Estimator-level errors raise only after
        every in-flight reply has been drained, so the request/reply pipes
        can never desynchronise.  Calls from several threads take turns on
        the dispatch lock.
        """
        if self._closed:
            raise ConfigurationError("service is closed")
        with self._dispatch_lock:
            pending = dict(assignments)
            replies: dict[int, object] = {}
            errors: list[BaseException] = []
            attempts = 0
            while pending:
                attempts += 1
                if attempts > 3 * max(len(assignments), 1):
                    raise QueryError("workers keep crashing; giving up dispatch")
                sent = []
                crashed = []
                for index, message in pending.items():
                    try:
                        self._workers[index].send(message)
                        sent.append(index)
                    except WorkerCrashed:
                        crashed.append(index)
                for index in sent:
                    try:
                        reply = self._workers[index].recv(RPC_TIMEOUT)
                    except (WorkerCrashed, TimeoutError):
                        # a hung worker is indistinguishable from a dead one,
                        # and its late reply would poison the pipe: replace it
                        crashed.append(index)
                        continue
                    del pending[index]
                    try:
                        replies[index] = self._expect_ok(reply)
                    except QueryError as exc:
                        errors.append(exc)  # drain the rest before raising
                for index in crashed:
                    try:
                        self._revive(index)
                    except (WorkerCrashed, TimeoutError):
                        # the replacement died during build or delta re-read; its
                        # message is still pending, so the next attempt retries
                        # (and eventually trips the attempts cap above) instead
                        # of leaking the internal crash signal to callers
                        continue
            if errors:
                raise errors[0]
            return replies

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def single_source(self, query: int, method: str | None = None):
        """One single-source query: a batch of one (see
        :meth:`single_source_many`), so worker 0 answers a cache miss."""
        return self.single_source_many([query], method)[0]

    def topk(self, query: int, k: int, method: str | None = None):
        """One top-k query: the top-``k`` view of :meth:`single_source`,
        through the same batch path and result cache."""
        return self.topk_many([query], k, method)[0]

    def cached(self, query: int, method: str | None = None):
        """The cached single-source answer at the live epoch, or ``None``.

        Validates like :meth:`single_source`.  A hit counts one query and
        one cache hit; a miss counts nothing, because the dispatch path's
        own probe counts it.  Safe on another thread than the one driving
        queries and syncs (the HTTP front door calls it on its event loop).
        After a rebuild sync is acknowledged it never returns a superseded
        answer: the sync moves the epoch only once every worker serves the
        new generation, and each batch probes and fills the cache at the
        one epoch it read first, so no answer from an older generation is
        stored under the live epoch.  A delta sync drops the touched
        entries before it returns.
        """
        key = self._resolve_method(method)
        node = check_query_node(query, self._num_nodes)
        result = self.cache.hit(key, node, self._epoch)
        if result is not None:
            with self._stats_lock:
                self.stats.queries += 1
        return result

    def single_source_many(
        self, queries: Sequence[int], method: str | None = None
    ) -> list:
        """A deduplicated batch, fanned out positionally across the pool.

        Distinct cache-missing queries are split ``misses[w::workers]``;
        worker ``w`` answers its share in order and the results merge back
        deterministically.  Duplicates and cache hits share answers.
        """
        return self.single_source_many_timed(queries, method)[0]

    def single_source_many_timed(
        self, queries: Sequence[int], method: str | None = None
    ) -> tuple[list, list[float]]:
        """:meth:`single_source_many` plus each op's own latency in seconds.

        A computed answer is charged the worker's wall-clock time for that
        op alone, a duplicate its batch-mate's (it waits on that very
        computation), and a cache hit the coordinator's probe.  The
        workload driver reports these as per-op latency on every executor.
        """
        key = self._resolve_method(method)
        batch = [check_query_node(query, self._num_nodes) for query in queries]
        # one epoch per batch (see cached): a rebuild sync moves it only
        # after its barrier, so no pre-barrier answer is filed under it
        epoch = self._epoch
        distinct = list(dict.fromkeys(batch))
        by_query: dict[int, object] = {}
        seconds: dict[int, float] = {}
        misses = []
        for node in distinct:
            started = time.perf_counter()
            cached = self.cache.get(key, node, epoch)
            if cached is not None:
                by_query[node] = cached
                seconds[node] = time.perf_counter() - started
            else:
                misses.append(node)
        ops = list(enumerate(misses))
        assignments = {
            w: ("query", (key, ops[w :: self.workers]))
            for w in range(self.workers)
            if ops[w :: self.workers]
        }
        replies = self._rpc_all(assignments)
        merged = sorted(
            (op_id, result, elapsed) for records in replies.values()
            for op_id, result, elapsed in records
        )
        for op_id, result, elapsed in merged:
            node = misses[op_id]
            by_query[node] = result
            seconds[node] = elapsed
            self.cache.put(key, node, epoch, result)
        with self._stats_lock:
            self.stats.queries += len(batch)
            self.stats.batches += 1
            self.stats.batched_queries += len(batch)
            self.stats.batched_unique += len(distinct)
        return (
            [by_query[node] for node in batch],
            [seconds[node] for node in batch],
        )

    def topk_many(
        self, queries: Sequence[int], k: int, method: str | None = None
    ) -> list:
        """Batched top-k: the top-k views of :meth:`single_source_many`.

        Raises
        ------
        QueryError
            If ``k`` is not positive, or a query id is not an int.
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        return [result.topk(k) for result in self.single_source_many(queries, method)]

    def capabilities(self, method: str | None = None):
        """Registry-declared capability descriptor of one served method."""
        name, _ = self._mounts[self._resolve_method(method)]
        return get_entry(name).capabilities

    # ------------------------------------------------------------------ #
    # dynamic maintenance
    # ------------------------------------------------------------------ #

    @property
    def epoch(self) -> int:
        """The graph generation queries are currently answered against."""
        return self._epoch

    def apply_edges(
        self,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
    ) -> int:
        """Apply edge insertions then deletions; maintain via :meth:`sync`."""
        updates = [EdgeUpdate("insert", int(s), int(t)) for s, t in added]
        updates += [EdgeUpdate("delete", int(s), int(t)) for s, t in removed]
        return self.apply_update_stream(updates)

    def apply_update_stream(self, updates: Iterable[EdgeUpdate]) -> int:
        """Apply an ordered update stream to the coordinator's graph.

        Workers keep serving the previous state until :meth:`sync` ships
        it (immediately under ``auto_sync``): as an O(Δ) delta burst when
        the resolved ``maintenance`` path is ``"delta"``, as an O(m) epoch
        rebuild otherwise.  The updates (and the neighborhood they touch —
        read *before* each update lands, see
        :func:`~repro.graph.dynamic.touched_neighborhood`) are accumulated
        here so a later deferred sync ships exactly this stream.
        """
        if self._digraph is None:
            raise ConfigurationError(
                "apply_edges needs a mutable DiGraph; this service owns a "
                "frozen snapshot"
            )
        count = 0
        track_deltas = self._maintenance == "delta"
        # only the cache reads the touched neighborhood
        track_touched = track_deltas and self.cache.enabled
        try:
            for update in updates:
                # neighborhood read before the edge flips (see the helper's
                # pre/post equivalence note), but recorded — like the
                # update itself — only once the mutation succeeded: a
                # rejected update must never reach a worker mirror
                touched = (
                    touched_neighborhood(self._digraph, (update,))
                    if track_touched else set()
                )
                apply_update(self._digraph, update)
                if track_deltas:  # rebuild syncs never read the accumulators
                    self._touched_pending |= touched
                    self._pending_updates.append(update)
                self._graph_stale = True
                count += 1
        finally:
            with self._stats_lock:
                self.stats.updates_applied += count
            if count and self.auto_sync:
                self.sync()
        return count

    def sync(self) -> None:
        """Ship the accumulated graph mutations to the worker pool.

        Delta path (resolved ``maintenance == "delta"``, and the epoch's
        shipped deltas stay within :data:`COMPACT_AFTER`): send the pending
        updates to every worker in a ``("delta", updates)`` RPC to absorb
        in place (``apply_updates`` on each replica), and invalidate only
        the cache entries whose query node falls in the touched
        neighborhood.  O(Δ); the graph epoch does not move.

        Rebuild path (``maintenance == "rebuild"``, or the burst would pass
        :data:`COMPACT_AFTER` — *compaction*): snapshot the coordinator
        graph, checkpoint it when the service has a store, publish it as a
        fresh generation (a store's process pool publishes the checkpoint
        file itself), rebuild every worker's replicas against it,
        invalidate every superseded cache entry, and only then release the
        previous generation.  O(m); empties the epoch's delta record.

        Idempotent when nothing changed.  Wall-clock is charged to
        ``stats.maintenance_seconds`` split evenly across the mounted
        methods; ``stats.delta_syncs`` / ``stats.epochs`` count which path
        each sync took.
        """
        if not self._graph_stale:
            return
        started = time.perf_counter()
        pending = tuple(self._pending_updates)
        if self._store is not None and len(pending) > self._store_logged:
            # write-ahead: the burst is durable before any worker serves it,
            # so crash recovery lands on the pre- or post-burst graph, never
            # between.  Only the not-yet-logged suffix is appended — a sync
            # retried after a failed dispatch must not duplicate records
            # (replaying a duplicate insert would not apply).
            self._store.log(pending[self._store_logged:])
            self._store_logged = len(pending)
        # the burst must be non-empty for the delta path: a stale graph
        # with nothing pending only occurs while recovering from an earlier
        # failed sync, and recovery is exactly what the rebuild provides
        use_delta = (
            self._maintenance == "delta"
            and bool(pending)
            and sum(map(len, self._delta_payloads)) + len(pending) <= COMPACT_AFTER
        )
        delta_error: BaseException | None = None
        if use_delta:
            try:
                self._sync_delta(pending)
            except Exception as exc:
                # a mid-burst failure (an estimator raising in
                # apply_updates, a worker crash storm) can leave some
                # mirrors updated and others not: fall through to a healing
                # compaction.  The fresh generation rebuilds every replica
                # from the coordinator graph, so the service is
                # consistent again when the error surfaces.
                delta_error = exc
        if not use_delta or delta_error is not None:
            # if the rebuild itself raises, every accumulator (and
            # _graph_stale) is left intact, so a later sync() retries with
            # the full record instead of silently shipping nothing
            self._sync_rebuild()
        # only a completed path — delta absorbed in place, or a rebuild
        # that folded everything into the fresh generation — spends the
        # pending record and the staleness flag
        self._pending_updates = []
        self._touched_pending = set()
        self._store_logged = 0
        self._graph_stale = False
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self.stats.syncs += 1
            for key in self._mounts:
                self.stats.charge_maintenance(key, elapsed / len(self._mounts))
        if delta_error is not None:
            raise delta_error

    def _sync_delta(self, pending: tuple[EdgeUpdate, ...]) -> None:
        """O(Δ) maintenance: ship ``pending`` for in-place absorption."""
        self._rpc_all({w: ("delta", pending) for w in range(self.workers)})
        self._delta_payloads.append(pending)
        self.cache.invalidate_nodes(self._touched_pending)
        with self._stats_lock:
            self.stats.delta_syncs += 1
            self.stats.delta_updates += len(pending)
            self.stats.incremental_notifications += (
                len(pending) * len(self._mounts)
            )

    def _sync_rebuild(self) -> None:
        """O(m) maintenance: publish a fresh epoch and rebarrier the pool.

        Under delta maintenance this is *compaction* — the new generation
        folds every shipped delta (plus the burst that would have passed
        :data:`COMPACT_AFTER`) into its CSR arrays, and the epoch's delta
        record resets to empty.
        """
        csr = CSRGraph.from_digraph(self._digraph)
        old_epoch = self._epoch
        if self._store is not None:
            # checkpoint first: the fresh snapshot folds the WAL in, and a
            # process pool publishes that very file, so a burst is durable
            # before any worker serves it.  Either side of a crash here
            # recovers to this same graph — the old snapshot + full WAL
            # before the rename, the new snapshot after.  A checkpoint that
            # raises leaves the old generation served and sync()'s record
            # intact for a retry.
            self._store.checkpoint(csr)
        self._num_nodes = csr.num_nodes
        if self._shm is not None:
            epoch = self._shm.publish(
                csr if self._store is None else self._store.snapshot_file
            )
        else:
            self._csr = csr
            epoch = old_epoch + 1
        try:
            self._rebarrier()
        finally:
            # only now: a batch that read the old epoch may have been
            # answered by a replica this barrier had not yet rebuilt
            self._epoch = epoch
        if self._shm is not None:
            self._shm.release_epoch(old_epoch)
        self.cache.invalidate_older(self._epoch)
        with self._stats_lock:
            self.stats.epochs += 1

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut the pool down and unlink every shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.send(("exit", None))
                worker.recv(5.0)
            except (WorkerCrashed, TimeoutError):
                pass
            worker.close(force=True)
        self._workers = []
        if self._shm is not None:
            self._shm.close()
            self._shm = None
        if self._snapshot_handle is not None:
            self._graph = None
            self._csr = None
            try:
                self._snapshot_handle.close()
            except BufferError:  # a caller still holds graph views
                pass
            self._snapshot_handle = None

    def __enter__(self):
        """Context-manager support: ``with service: ...`` guarantees
        :meth:`close` on exit, however the block ends."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(methods={self.methods}, "
            f"workers={self.workers}, executor={self.executor!r}, "
            f"epoch={self._epoch}, queries={self.stats.queries})"
        )
