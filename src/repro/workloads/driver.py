"""Replay a workload trace against a SimRank serving layer.

This is the heavy-traffic half of the paper's dynamic-graph experiment: one
driver replays the *same* :class:`~repro.workloads.generator.WorkloadTrace`
against each compared method and reports what a serving operator would
measure — per-op latency percentiles, sustained QPS under interference from
the update stream, maintenance cost, and read staleness.

Execution model
---------------
Every replay runs on one :class:`~repro.parallel.pool.ParallelSimRankService`
per method, with ``workers`` estimator replicas (seeds derived per replica).
The service deduplicates each query batch (duplicates share their
batch-mate's answer), probes the result cache, splits the distinct misses
round-robin by position across the replicas and merges the answers back in
batch order.  Each worker times every op it answers and returns that time
with the answer, so the latency percentiles are per op, not batch means.
The ``executor`` only picks where the replicas run:

``executor="thread"``
    In-process replicas answering their shares on a thread pool; they
    overlap only where kernels release the GIL — the single-process
    ceiling.
``executor="process"``
    Worker *processes* answering against a shared-memory graph —
    throughput scales with cores.
``executor="sequential"``
    In-process replicas run one after another on the calling thread: the
    determinism oracle the other two executors are held to.

The ``maintenance`` knob picks the update path on every executor:
``"rebuild"`` publishes a graph epoch per sync (every replica rebuilt,
O(m)), ``"delta"`` ships the edge deltas and replicas absorb them in place
(O(Δ); needs ``capabilities().incremental_updates``), ``"auto"`` (default)
chooses delta exactly when the method supports it.

Result caching
--------------
``cache_size > 0`` puts the service's update-aware LRU
(:class:`~repro.parallel.cache.ResultCache`) in front of the query path,
keyed ``(method, query, epoch)``.  An epoch rebuild advances the epoch and
the whole cache turns over; a delta sync keeps the epoch and invalidates
only the entries in the updates' touched neighborhood
(:meth:`~repro.parallel.cache.ResultCache.invalidate_nodes`) — hot Zipf
keys stay warm across small updates.  Epoch turnover keeps hits exactly as
fresh as a recompute; neighborhood invalidation deliberately trades a
geometrically decaying residual staleness outside the 1-hop set for that
warmth (see :func:`repro.graph.dynamic.touched_neighborhood`).  The cache
counters land in each :class:`MethodReport`.

Reproducibility
---------------
Replica assignment is positional (not load-based) and each replica consumes
its ops in trace order; with integer seeds every query draws from its own
``(replica seed, query)`` stream, so every answer is a pure function of
``(trace, method config, workers, maintenance)``.  The driver folds each
result's score vector into a running digest in global op order; two runs
with the same inputs produce bit-identical digests, while wall-clock
numbers of course vary.  Cache hits return the answer they were cached
from, so caching keeps runs bit-reproducible too (for fixed knobs).  Every
replay starts from the *canonical* (CSR-ordered) form of the graph, the
order worker processes reconstruct from shared memory, so
adjacency-order-sensitive samplers draw identical streams everywhere: the
three executors run one dispatch and maintenance schedule, and their
reports agree bit for bit apart from timings (asserted by the test suite).

Staleness
---------
With ``sync_every=1`` (the default) every update batch is synced before
the next read and reads are always fresh.  With ``sync_every=k > 1`` a
rebuild-maintained replay defers its syncs and flushes every ``k`` update
batches — each query then records how many applied-but-unsynced updates
its answer may be missing.  A delta-maintained replay (incremental methods
such as TSF and the walk cache, under ``"auto"`` or ``"delta"``) absorbs
every burst as it arrives and never goes stale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Sequence

import numpy as np

from repro.errors import EvaluationError
from repro.eval.metrics_export import flatten_metrics
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.parallel.pool import (
    EXECUTORS,
    MAINTENANCE_MODES,
    ParallelSimRankService,
)
from repro.utils.validation import check_positive_int
from repro.workloads.generator import WorkloadTrace
from repro.workloads.stats import LatencyHistogram

__all__ = ["MethodReport", "WorkloadResult", "run_workload"]

@dataclass
class MethodReport:
    """Everything measured for one method over one trace replay.

    All times are wall-clock seconds.  ``digest`` is the order-sensitive
    hash of every query's score vector — the bit-reproducibility handle.
    ``cache`` carries the result-cache counters (empty when caching is off).
    ``sync_every`` is the cadence the replay ran: ``1`` under delta
    maintenance whatever was requested.
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


def _replay(
    graph: DiGraph | None,
    trace: WorkloadTrace,
    method: str,
    config: dict,
    workers: int,
    sync_every: int,
    cache_size: int,
    maintenance: str,
    executor: str,
    snapshot,
) -> MethodReport:
    """Replay ``trace`` for one method on a :class:`ParallelSimRankService`.

    The service owns the dedup, cache probing, positional split, the
    epochs or delta bursts (per ``maintenance``) and the update-aware cache
    on every executor; the driver contributes the sync cadence and the
    deterministic digest.  Per-op latency is the service's own per-op
    time (:meth:`ParallelSimRankService.single_source_many_timed`).  With
    ``snapshot`` set the service ``mmap``-attaches the persistent snapshot
    file instead of copying ``graph``.
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
        auto_sync=False,
        maintenance=maintenance,
        executor=executor,
        snapshot=snapshot,
    )
    report.maintenance = service.maintenance
    # only epoch rebuilds are worth deferring: a delta burst is O(Δ), so a
    # delta-maintained replay absorbs every burst and never serves stale.
    # The report records the cadence the replay actually ran.
    if service.maintenance != "rebuild":
        report.sync_every = 1
    with service:  # guarantees worker/shared-memory teardown
        wall_started = time.perf_counter()
        for batch in trace:
            if batch.kind == "update":
                service.apply_update_stream(batch.updates)
                report.num_updates += len(batch.updates)
                unsynced_updates += len(batch.updates)
                batches_since_sync += 1
                if batches_since_sync >= report.sync_every:
                    service.sync()
                    unsynced_updates = 0
                    batches_since_sync = 0
                continue
            results, seconds = service.single_source_many_timed(batch.queries)
            for position, (result, elapsed) in enumerate(zip(results, seconds)):
                op_id = batch.offset + position
                digest.update(op_id.to_bytes(8, "little"))
                digest.update(int(result.query).to_bytes(8, "little"))
                digest.update(_fingerprint(result.scores))
                report.latency.record(elapsed)
                report.staleness_samples.append(unsynced_updates)
            report.num_queries += len(results)
        service.sync()  # flush the tail (a no-op when nothing is pending)
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
        Under rebuild maintenance, sync every ``sync_every`` update
        batches.  ``1`` (default) syncs after every update batch
        (always-fresh reads); larger values trade staleness for maintenance
        cost.  Delta-maintained replays sync every batch regardless, and
        their reports record ``sync_every=1``.
    executor:
        Where the service's replicas run: ``"thread"`` (a thread pool in
        this process — GIL-bound), ``"process"`` (worker processes over a
        shared-memory graph; throughput scales with cores), or
        ``"sequential"`` (in-process, one replica at a time — the
        determinism oracle).  All three run the same dispatch, so their
        reports agree apart from timings.  On every executor an op's
        latency is its own compute time on its worker (a duplicate shares
        its batch-mate's, a cache hit costs the probe).
    cache_size:
        Capacity of the update-aware single-source result cache in front of
        the query path; ``0`` (default) disables caching.
    maintenance:
        Update-maintenance path, honoured on every executor: ``"rebuild"``
        (epoch republish per sync), ``"delta"`` (in-place delta
        propagation; requires incremental-capable methods), or ``"auto"``
        (default — delta exactly when the method supports it).
    snapshot:
        Replay against a persistent mmap-attached snapshot instead of
        ``graph`` (which must then be ``None``): a
        :func:`repro.storage.write_snapshot` / ``repro ingest`` file.  The
        mapped tier is read-only, so the trace must contain no updates.
        Works on every executor.

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
    # every replay mutates a private thawed copy, never the caller's graph.
    # The CSR round-trip keeps adjacency order in both directions, which is
    # the order delta-mode workers thaw their mirrors in, so
    # adjacency-order-sensitive samplers (TSF draws neighbors by list
    # position) agree bit-for-bit between delta bursts and the epoch
    # rebuilds that compact them.  (Snapshot replays skip this: they are
    # read-only and attach the payload without materialisation.)
    if graph is not None:
        graph = CSRGraph.from_digraph(graph).to_digraph()
    result = WorkloadResult(
        trace_signature=trace.signature(),
        trace_config=trace.config.as_dict(),
    )
    for method in methods:
        result.reports.append(_replay(
            graph, trace, method, configs.get(method, {}), workers,
            sync_every, cache_size, maintenance, executor, snapshot,
        ))
    return result
