"""Replay a workload trace against a SimRank serving layer.

This is the heavy-traffic half of the paper's dynamic-graph experiment: one
driver replays the *same* :class:`~repro.workloads.generator.WorkloadTrace`
against each compared method and reports what a serving operator would
measure — per-op latency percentiles, sustained QPS under interference from
the update stream, maintenance cost, and read staleness.

Execution model
---------------
Two executors replay the trace batch by batch:

``executor="thread"``
    One :class:`~repro.api.service.SimRankService` per method, mounting
    ``workers`` estimator *replicas* (``alias=f"{method}#w{i}"``, seeds
    derived per replica).  Each query batch is deduplicated (duplicates
    share their batch-mate's answer, the services' batching rule) and the
    distinct queries split round-robin by position across the replicas on
    a thread pool.  Replicas overlap only where kernels release the GIL —
    this is the single-process ceiling.
``executor="process"``
    One :class:`~repro.parallel.pool.ParallelSimRankService` per method:
    the same positional split, but across worker *processes* answering
    against a shared-memory graph — throughput scales with cores.  The
    ``maintenance`` knob picks the update path: ``"rebuild"`` publishes a
    graph epoch per sync (every replica rebuilt, O(m)), ``"delta"`` ships
    the edge deltas through the shared log and replicas absorb them in
    place (O(Δ); needs ``capabilities().incremental_updates``), ``"auto"``
    (default) chooses delta exactly when the method supports it.
``executor="sequential"``
    The parallel service's in-process oracle: the identical dispatch,
    maintenance, and caching schedule with no worker processes.  Its
    digests are the bit-exactness reference the process executor is held
    to — including under updates, on both maintenance paths.

Result caching
--------------
``cache_size > 0`` puts an update-aware LRU
(:class:`~repro.parallel.cache.ResultCache`) in front of the query path,
keyed ``(method, query, epoch)``.  For bulk-synced estimators the epoch
advances whenever the serving state absorbs updates and the whole cache
turns over; for incremental estimators (and the process executor's delta
path) the epoch stands still and only the entries in the updates' touched
neighborhood are invalidated
(:meth:`~repro.parallel.cache.ResultCache.invalidate_nodes`) — hot Zipf
keys stay warm across small updates.  Epoch turnover keeps hits exactly as
fresh as a recompute; neighborhood invalidation deliberately trades a
geometrically decaying residual staleness outside the 1-hop set for that
warmth (see :func:`repro.graph.dynamic.touched_neighborhood`).
Hit/miss/invalidation counters land in each :class:`MethodReport` via one
locked snapshot.

Reproducibility
---------------
Replica assignment is positional (not load-based) and each replica consumes
its ops in trace order; with integer seeds every query draws from its own
``(replica seed, query)`` stream, so every answer is a pure function of
``(trace, method config, workers)``.  The driver folds each result's score
vector into a running digest in global op order; two runs with the same
inputs produce bit-identical digests (asserted by the test suite), while
wall-clock numbers of course vary.  Cache hits reuse the digest fingerprint
of the answer they were served from, so caching keeps runs bit-reproducible
too (for fixed knobs).  Every replay — thread replicas included — starts
from the *canonical* (CSR-ordered) form of the graph, the order worker
processes reconstruct from shared memory, so adjacency-order-sensitive
samplers draw identical streams everywhere: thread and process digests are
bit-identical on update-free traces, under updates for index-free methods
on either maintenance path, and for incremental methods replayed through
the delta path (asserted by the test suite).  Only TSF under
``maintenance="rebuild"`` diverges: the process executor resamples its
one-way graphs at every epoch, where thread replicas patch them in place.

Staleness
---------
With ``sync_every=1`` (the default) non-incremental estimators re-sync
after every update batch and reads are always fresh.  With
``sync_every=k > 1`` the service defers syncs (``auto_sync=False``) and the
driver flushes every ``k`` update batches — each query then records how
many applied-but-unsynced updates its answer may be missing.  Methods with
``capabilities().incremental_updates`` (TSF, the walk cache) are notified
per update under the thread executor and never go stale.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Sequence

import numpy as np

from repro.api.registry import get_entry
from repro.api.service import SimRankService
from repro.errors import EvaluationError
from repro.eval.metrics_export import flatten_metrics
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import touched_neighborhood
from repro.parallel.cache import ResultCache
from repro.parallel.pool import (
    MAINTENANCE_MODES,
    ParallelSimRankService,
    derive_replica_config,
)
from repro.utils.validation import check_positive_int
from repro.workloads.generator import WorkloadTrace
from repro.workloads.stats import LatencyHistogram

__all__ = ["MethodReport", "WorkloadResult", "run_workload"]

#: executors the driver can replay on ("sequential" is the process
#: service's in-process oracle — same schedule, no worker processes).
EXECUTORS = ("thread", "process", "sequential")


@dataclass
class MethodReport:
    """Everything measured for one method over one trace replay.

    All times are wall-clock seconds.  ``digest`` is the order-sensitive
    hash of every query's score vector — the bit-reproducibility handle.
    ``cache`` carries the result-cache counters (empty when caching is off).
    """

    method: str
    workers: int
    sync_every: int
    executor: str = "thread"
    cache_size: int = 0
    #: resolved maintenance path: "delta" (updates absorbed in place) or
    #: "rebuild" (full re-sync / epoch republish per update burst)
    maintenance: str = "rebuild"
    num_queries: int = 0
    num_updates: int = 0
    wall_seconds: float = 0.0
    maintenance_seconds: float = 0.0
    syncs: int = 0
    delta_syncs: int = 0
    epochs: int = 0
    incremental_notifications: int = 0
    worker_restarts: int = 0
    cache: dict[str, object] = field(default_factory=dict)
    staleness_samples: list[int] = field(default_factory=list)
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    digest: str = ""

    @property
    def qps(self) -> float:
        """Sustained queries/second over the whole replay (updates included
        in the denominator — this is throughput *under interference*)."""
        return self.num_queries / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def maintenance_per_update(self) -> float:
        """Mean maintenance cost charged per applied update."""
        return (
            self.maintenance_seconds / self.num_updates if self.num_updates else 0.0
        )

    @property
    def staleness_mean(self) -> float:
        """Mean unsynced-updates-behind across all queries."""
        return float(np.mean(self.staleness_samples)) if self.staleness_samples else 0.0

    @property
    def staleness_max(self) -> int:
        """Worst unsynced-updates-behind any query observed."""
        return int(max(self.staleness_samples)) if self.staleness_samples else 0

    def as_row(self) -> dict[str, object]:
        """Flat dict row for table rendering (times in milliseconds)."""
        row = {
            "method": self.method,
            "queries": self.num_queries,
            "updates": self.num_updates,
            "qps": self.qps,
            "p50_ms": self.latency.percentile(50) * 1e3,
            "p95_ms": self.latency.percentile(95) * 1e3,
            "p99_ms": self.latency.percentile(99) * 1e3,
            "maint_s": self.maintenance_seconds,
            "maint_per_update_ms": self.maintenance_per_update * 1e3,
            "stale_mean": self.staleness_mean,
        }
        if self.cache:
            row["cache_hit"] = self.cache.get("hit_rate", 0.0)
        return row

    def metrics(self) -> dict[str, float]:
        """Flat Prometheus-style counters for this replay.

        Shares naming with the HTTP tier's ``/metrics`` endpoint (both run
        through :mod:`repro.eval.metrics_export`), so offline reports and
        live scrapes are comparable metric-for-metric.
        """
        return flatten_metrics(
            {
                "queries": self.num_queries,
                "updates": self.num_updates,
                "qps": self.qps,
                "p50_ms": self.latency.percentile(50) * 1e3,
                "p95_ms": self.latency.percentile(95) * 1e3,
                "p99_ms": self.latency.percentile(99) * 1e3,
                "maintenance_s": self.maintenance_seconds,
                "syncs": self.syncs,
                "delta_syncs": self.delta_syncs,
                "epochs": self.epochs,
                "worker_restarts": self.worker_restarts,
                "staleness_mean": self.staleness_mean,
            },
            cache=self.cache,
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready dict (full latency histogram included)."""
        return {
            "method": self.method,
            "workers": self.workers,
            "sync_every": self.sync_every,
            "executor": self.executor,
            "cache_size": self.cache_size,
            "maintenance": self.maintenance,
            "num_queries": self.num_queries,
            "num_updates": self.num_updates,
            "wall_seconds": self.wall_seconds,
            "qps": self.qps,
            "latency": self.latency.to_dict(),
            "maintenance_seconds": self.maintenance_seconds,
            "maintenance_per_update_s": self.maintenance_per_update,
            "syncs": self.syncs,
            "delta_syncs": self.delta_syncs,
            "epochs": self.epochs,
            "incremental_notifications": self.incremental_notifications,
            "worker_restarts": self.worker_restarts,
            "cache": dict(self.cache),
            "metrics": self.metrics(),
            "staleness_mean": self.staleness_mean,
            "staleness_max": self.staleness_max,
            "digest": self.digest,
        }


@dataclass
class WorkloadResult:
    """One driver run: the trace's identity plus a report per method."""

    trace_signature: str
    trace_config: dict[str, object]
    reports: list[MethodReport] = field(default_factory=list)

    def rows(self) -> list[dict[str, object]]:
        """Per-method table rows (for ``format_table``)."""
        return [report.as_row() for report in self.reports]

    def to_dict(self) -> dict[str, object]:
        """JSON-ready dict for :func:`repro.eval.reporting.write_json_report`."""
        return {
            "trace": {
                "signature": self.trace_signature,
                **self.trace_config,
            },
            "reports": [report.to_dict() for report in self.reports],
        }


def _fingerprint(scores: np.ndarray) -> bytes:
    """16-byte digest fingerprint of one result's score vector."""
    return blake2b(
        np.ascontiguousarray(scores).tobytes(), digest_size=16
    ).digest()


def _replay_thread(
    graph: DiGraph,
    trace: WorkloadTrace,
    method: str,
    config: dict,
    workers: int,
    sync_every: int,
    cache_size: int,
    maintenance: str,
) -> MethodReport:
    """Thread-executor replay; see the module docstring for the model.

    ``maintenance`` is advisory here — in-process replicas are always
    maintained by capability (incremental notification when the method
    supports it, bulk sync otherwise), which is exactly the parallel
    service's ``"auto"`` resolution.
    """
    del maintenance
    entry = get_entry(method)
    service = SimRankService(graph.copy(), methods=(), auto_sync=sync_every == 1)
    aliases = []
    for worker in range(workers):
        alias = f"{method}#w{worker}"
        service.add_method(
            method, alias=alias, **derive_replica_config(entry, config, worker)
        )
        aliases.append(alias)
    incremental = service.capabilities(aliases[0]).incremental_updates

    report = MethodReport(
        method=method, workers=workers, sync_every=sync_every,
        executor="thread", cache_size=cache_size,
        maintenance="delta" if incremental else "rebuild",
    )
    cache = ResultCache(cache_size)
    epoch = 0
    digest = blake2b(digest_size=16)
    unsynced_updates = 0
    batches_since_sync = 0

    def run_share(alias: str, share: list[tuple[int, int]]):
        """One replica's slice of a query batch: (global op id, node) pairs.

        Runs on a pool thread; touches only its own replica (plus the
        service's lock-guarded counters).  Returns per-op records so the
        coordinator can merge them back in deterministic global order.
        """
        records = []
        for op_id, node in share:
            started = time.perf_counter()
            result = service.single_source(node, method=alias)
            elapsed = time.perf_counter() - started
            records.append((op_id, node, elapsed, _fingerprint(result.scores)))
        return records

    wall_started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for batch in trace:
            if batch.kind == "update":
                # touched set computed against the pre-batch graph: a burst
                # only toggles edges between its own endpoints (all of which
                # are in the set), so pre-batch and per-update reads yield
                # the same union — see touched_neighborhood
                touched = (
                    touched_neighborhood(service.graph, batch.updates)
                    if incremental else None
                )
                service.apply_update_stream(batch.updates)
                report.num_updates += len(batch.updates)
                if incremental:
                    # replicas absorbed the batch in place (delta
                    # semantics): the epoch stands still and only the
                    # touched neighborhood turns over — hot keys stay warm
                    cache.invalidate_nodes(touched)
                elif sync_every == 1:
                    epoch += 1  # replicas re-synced: new cache epoch
                    cache.invalidate_older(epoch)
                else:
                    unsynced_updates += len(batch.updates)
                    batches_since_sync += 1
                    if batches_since_sync >= sync_every:
                        service.sync()
                        epoch += 1
                        cache.invalidate_older(epoch)
                        unsynced_updates = 0
                        batches_since_sync = 0
                continue
            # cache probe and batch dedup happen on the coordinator,
            # *before* the split — the same discipline as both services'
            # single_source_many — so replica RNG streams (and the digest)
            # stay a pure function of the knobs: hot hits never reach a
            # replica, and duplicate queries share one computation.
            hit_records = []
            unique_ops = []
            dup_ops = []
            dispatched: set[int] = set()
            for position, node in enumerate(batch.queries):
                op_id = batch.offset + position
                started = time.perf_counter()
                fingerprint = cache.get(method, node, epoch)
                if fingerprint is not None:
                    elapsed = time.perf_counter() - started
                    hit_records.append((op_id, node, elapsed, fingerprint))
                elif node in dispatched:
                    dup_ops.append((op_id, node))
                else:
                    dispatched.add(node)
                    unique_ops.append((op_id, node))
            shares = [unique_ops[w::workers] for w in range(workers)]
            futures = [
                pool.submit(run_share, aliases[w], shares[w])
                for w in range(workers)
                if shares[w]
            ]
            merged = [record for future in futures for record in future.result()]
            by_node = {}
            for op_id, node, elapsed, fingerprint in merged:
                by_node[node] = (elapsed, fingerprint)
                cache.put(method, node, epoch, fingerprint)
            # a duplicate waits on its batch-mate's computation: same answer,
            # same latency, no replica work
            merged += [(op, node) + by_node[node] for op, node in dup_ops]
            merged += hit_records
            merged.sort()  # deterministic global op order
            for op_id, node, elapsed, fingerprint in merged:
                digest.update(op_id.to_bytes(8, "little"))
                digest.update(node.to_bytes(8, "little"))
                digest.update(fingerprint)
                report.latency.record(elapsed)
                report.staleness_samples.append(0 if incremental else unsynced_updates)
            report.num_queries += len(merged)
    if sync_every > 1 and unsynced_updates:
        service.sync()  # flush the tail so the service ends consistent
    report.wall_seconds = time.perf_counter() - wall_started
    report.maintenance_seconds = service.stats.total_maintenance_seconds
    report.syncs = service.stats.syncs
    report.incremental_notifications = service.stats.incremental_notifications
    if cache.enabled:
        report.cache = cache.snapshot()
    report.digest = digest.hexdigest()
    return report


def _replay_process(
    graph: DiGraph | None,
    trace: WorkloadTrace,
    method: str,
    config: dict,
    workers: int,
    sync_every: int,
    cache_size: int,
    maintenance: str,
    executor: str = "process",
    snapshot=None,
) -> MethodReport:
    """Process-executor replay on a :class:`ParallelSimRankService`.

    The service owns the positional split, the shared-memory epochs or
    delta log (per ``maintenance``), and the update-aware cache; the driver
    contributes the sync cadence and the deterministic digest.  Per-op
    latency is the batch mean (results cross a process boundary, so op
    timings are not individually observable from the coordinator).
    ``executor="sequential"`` replays the identical schedule in-process —
    the bit-exactness oracle.  With ``snapshot`` set the service
    ``mmap``-attaches the persistent snapshot file instead of copying
    ``graph``.
    """
    report = MethodReport(
        method=method, workers=workers, sync_every=sync_every,
        executor=executor, cache_size=cache_size,
    )
    digest = blake2b(digest_size=16)
    unsynced_updates = 0
    batches_since_sync = 0

    service = ParallelSimRankService(
        graph.copy() if graph is not None else None,
        methods=(method,),
        configs={method: config},
        workers=workers,
        cache_size=cache_size,
        auto_sync=sync_every == 1,
        maintenance=maintenance,
        executor=executor,
        snapshot=snapshot,
    )
    report.maintenance = service.maintenance
    with service:  # guarantees worker/shared-memory teardown
        wall_started = time.perf_counter()
        for batch in trace:
            if batch.kind == "update":
                service.apply_update_stream(batch.updates)
                report.num_updates += len(batch.updates)
                if sync_every > 1:
                    unsynced_updates += len(batch.updates)
                    batches_since_sync += 1
                    if batches_since_sync >= sync_every:
                        service.sync()
                        unsynced_updates = 0
                        batches_since_sync = 0
                continue
            started = time.perf_counter()
            results = service.single_source_many(batch.queries)
            batch_seconds = time.perf_counter() - started
            per_op = batch_seconds / max(len(results), 1)
            for position, result in enumerate(results):
                op_id = batch.offset + position
                digest.update(op_id.to_bytes(8, "little"))
                digest.update(int(result.query).to_bytes(8, "little"))
                digest.update(_fingerprint(result.scores))
                report.latency.record(per_op)
                report.staleness_samples.append(unsynced_updates)
            report.num_queries += len(results)
        if sync_every > 1 and unsynced_updates:
            service.sync()
        report.wall_seconds = time.perf_counter() - wall_started
        report.maintenance_seconds = service.stats.total_maintenance_seconds
        report.syncs = service.stats.syncs
        report.delta_syncs = service.stats.delta_syncs
        report.epochs = service.stats.epochs
        report.incremental_notifications = (
            service.stats.incremental_notifications
        )
        report.worker_restarts = service.stats.worker_restarts
        if service.cache.enabled:
            report.cache = service.cache.snapshot()
    report.digest = digest.hexdigest()
    return report


def run_workload(
    graph: DiGraph | None,
    trace: WorkloadTrace,
    methods: Sequence[str],
    configs: dict[str, dict] | None = None,
    workers: int = 1,
    sync_every: int = 1,
    executor: str = "thread",
    cache_size: int = 0,
    maintenance: str = "auto",
    snapshot=None,
) -> WorkloadResult:
    """Replay ``trace`` once per method and collect comparable reports.

    Every method sees an identical workload: the replay starts from a fresh
    copy of ``graph`` each time, and the trace (queries, updates, arrival
    order) is fixed up front by the generator.

    Parameters
    ----------
    graph:
        Starting graph (not modified; each replay copies it).
    trace:
        The workload to replay (from
        :func:`repro.workloads.generator.generate_workload`).
    methods:
        Registry names to compare (e.g. ``("probesim-native", "tsf")``).
    configs:
        Optional per-method keyword configuration, ``{name: {key: value}}``.
    workers:
        Query-side pool width; each worker drives its own estimator
        replica.  Must be positive.
    sync_every:
        Sync non-incremental estimators every ``sync_every`` update batches.
        ``1`` (default) syncs after every update batch (always-fresh reads);
        larger values trade staleness for maintenance cost.
    executor:
        ``"thread"`` (estimator replicas on a thread pool — the GIL-bound
        single-process path), ``"process"`` (the shared-memory multiprocess
        service; throughput scales with cores), or ``"sequential"`` (the
        process service's in-process oracle — identical schedule, useful
        for bit-exactness baselines).
    cache_size:
        Capacity of the update-aware single-source result cache in front of
        the query path; ``0`` (default) disables caching.
    maintenance:
        Update-maintenance path for the process/sequential executors:
        ``"rebuild"`` (epoch republish per update burst), ``"delta"``
        (in-place delta propagation; requires incremental-capable methods),
        or ``"auto"`` (default — delta exactly when the method supports
        it).  The thread executor always maintains by capability (its
        ``"auto"``); the knob is validated but advisory there.
    snapshot:
        Replay against a persistent mmap-attached snapshot instead of
        ``graph`` (which must then be ``None``): a
        :func:`repro.storage.write_snapshot` / ``repro ingest`` file.  The
        mapped tier is read-only, so the trace must contain no updates, and it has no
        thread path.

    Returns
    -------
    WorkloadResult
        One :class:`MethodReport` per method, in ``methods`` order.

    Raises
    ------
    EvaluationError
        If ``methods`` is empty, a config references an unknown method, or
        ``executor`` is unknown.
    ConfigurationError
        From the registry, for unknown method names or bad config keys.
    """
    check_positive_int("workers", workers)
    check_positive_int("sync_every", sync_every)
    if executor not in EXECUTORS:
        raise EvaluationError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    if maintenance not in MAINTENANCE_MODES:
        raise EvaluationError(
            f"maintenance must be one of {MAINTENANCE_MODES}, "
            f"got {maintenance!r}"
        )
    if cache_size < 0:
        raise EvaluationError(f"cache_size must be >= 0, got {cache_size}")
    if snapshot is not None:
        if graph is not None:
            raise EvaluationError(
                "pass either graph or snapshot=, not both — the snapshot is "
                "the graph source"
            )
        if executor == "thread":
            raise EvaluationError(
                "snapshot replay needs the process or sequential executor; "
                "the thread executor has no mmap path"
            )
        if trace.num_updates:
            raise EvaluationError(
                "snapshot replay is read-only: the trace must contain no "
                f"updates, got {trace.num_updates}"
            )
    elif graph is None:
        raise EvaluationError("need a graph (or snapshot=) to replay against")
    if not methods:
        raise EvaluationError("need at least one method to replay the workload")
    configs = configs or {}
    unknown = sorted(set(configs) - set(methods))
    if unknown:
        raise EvaluationError(f"configs given for methods not replayed: {unknown}")
    # every replay starts from the canonical (CSR-ordered) form of the
    # graph: delta-mode worker processes reconstruct their mutable mirrors
    # from the shared CSR arrays in exactly this order, so starting thread
    # replicas and rebuild-mode snapshots from it too is what lets
    # adjacency-order-sensitive samplers (TSF draws neighbors by list
    # position) agree bit-for-bit across every executor.  The round-trip
    # is a fixed point, so re-canonicalising downstream changes nothing.
    # (Snapshot replays skip this: the snapshot payload already *is* the
    # canonical CSR byte order, attached without materialisation.)
    if graph is not None:
        graph = CSRGraph.from_digraph(graph).to_digraph()
    result = WorkloadResult(
        trace_signature=trace.signature(),
        trace_config=trace.config.as_dict(),
    )
    for method in methods:
        if executor == "thread":
            report = _replay_thread(
                graph, trace, method, configs.get(method, {}), workers,
                sync_every, cache_size, maintenance,
            )
        else:
            report = _replay_process(
                graph, trace, method, configs.get(method, {}), workers,
                sync_every, cache_size, maintenance, executor=executor,
                snapshot=snapshot,
            )
        result.reports.append(report)
    return result
