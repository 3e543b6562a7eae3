"""Shared-memory multiprocess serving: the scale-out layer.

In-process serving (:class:`~repro.api.service.SimRankService`, the
one-worker sequential pool) tops out at one core for pure-Python
estimators (the GIL serialises their interpreter work).  This package
lifts serving to process-level parallelism while keeping the graph
physically shared:

:mod:`~repro.parallel.shm`
    :class:`~repro.parallel.shm.SharedCSRGraph` — CSR adjacency arrays in
    ``multiprocessing.shared_memory``, reattached zero-copy in workers,
    versioned by a generation counter (the *epoch*) so workers detect
    graph changes.
:mod:`~repro.parallel.pool`
    :class:`~repro.parallel.pool.ParallelSimRankService` — the one
    query/maintenance implementation, fanned out over a persistent
    worker-process pool with batched deterministic dispatch and
    worker-crash recovery.
:mod:`~repro.parallel.cache`
    :class:`~repro.parallel.cache.ResultCache` — an update-aware LRU for
    single-source results keyed ``(method, query, epoch)``, invalidated by
    epoch bumps.

Scale-out is one pool over one graph: every worker answers against the
whole shared snapshot, so every served score keeps the estimator's
``eps_a`` / ``delta`` guarantee at any worker count.

The service can also serve straight off the persistent tier
(:mod:`repro.storage`): ``snapshot=`` mmap-attaches a CSR snapshot file
instead of rebuilding shared segments, and ``store=`` makes the service
durable — every accepted update burst is write-ahead-logged and each
compaction checkpoints a fresh snapshot generation.

Entry points: ``repro workload --executor process`` and
``repro serve --workers W`` on the CLI (``--snapshot`` / ``--store`` for
the persistent paths), plus ``benchmarks/bench_parallel_service.py`` in
the harness.
"""

from repro.parallel.cache import CacheStats, ResultCache
from repro.parallel.pool import ParallelSimRankService, derive_replica_config
from repro.parallel.shm import SharedCSRGraph, ShmGraphDescriptor

__all__ = [
    "CacheStats",
    "ParallelSimRankService",
    "ResultCache",
    "SharedCSRGraph",
    "ShmGraphDescriptor",
    "derive_replica_config",
]
