"""The serving protocol: :class:`QueryServiceBase` and :class:`ServiceStats`.

Every serving surface speaks these verbs over this bookkeeping: the
worker pool (:class:`~repro.parallel.pool.ParallelSimRankService`), the
one-worker in-process service built on it
(:class:`~repro.api.service.SimRankService`), and the HTTP front door
(:mod:`repro.server.app`) that drives either one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError, QueryError

__all__ = ["QueryServiceBase", "ServiceStats"]


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


class QueryServiceBase:
    """Protocol surface of a SimRank query service.

    One owned graph, named mounted methods with a default, lock-guarded
    :class:`ServiceStats`, query-id normalisation, and top-k as a view over
    the batched single-source path.  The worker pool
    (:class:`repro.parallel.pool.ParallelSimRankService`) implements the
    query/maintenance execution; the HTTP front door speaks only these
    verbs.  Subclasses provide :meth:`_method_keys` (the mounted method
    names) and the execution itself.
    """

    def __init__(self, graph, default_method: str | None = None) -> None:
        self._graph = graph
        self._default = default_method
        self.stats = ServiceStats()  # guarded-by: _stats_lock
        self._stats_lock = threading.Lock()

    @property
    def graph(self):
        """The graph this service owns."""
        return self._graph

    @property
    def methods(self) -> list[str]:
        """Names the service can answer with, sorted."""
        return sorted(self._method_keys())

    def _method_keys(self):
        """The mounted method names (mapping or iterable); subclass hook."""
        raise NotImplementedError

    def _resolve_method(self, method: str | None) -> str:
        """Normalise ``method`` (default when None) to a mounted key.

        Raises
        ------
        ConfigurationError
            If no methods are mounted, or ``method`` names none of them.
        """
        key = method or self._default
        if key is None:
            raise ConfigurationError("service has no methods registered")
        if key not in self._method_keys():
            raise ConfigurationError(
                f"service has no method {key!r}; available: {self.methods}"
            )
        return key

    @staticmethod
    def _validate_configs(
        configs: dict[str, dict] | None, methods: Sequence[str]
    ) -> dict[str, dict]:
        """Reject configs naming methods the service does not mount."""
        configs = configs or {}
        unknown = sorted(set(configs) - set(methods))
        if unknown:
            raise ConfigurationError(
                f"configs given for unregistered service methods {unknown}"
            )
        return configs

    @staticmethod
    def _check_query_id(query) -> int:
        """Normalize one query id to int (full validation is per-estimator)."""
        if isinstance(query, bool) or not hasattr(query, "__index__"):
            raise QueryError(f"query node must be an int, got {type(query).__name__}")
        return int(query)

    def cached(self, query: int, method: str | None = None):
        """The stored single-source answer for ``query``, or ``None``.

        Read-only and never computes: the HTTP front door calls it on its
        event loop before a request joins a coalescing bucket, so a hit is
        answered without the dispatch thread and a bad method or query id
        fails that request alone (raising as a query would).
        """
        raise NotImplementedError  # pragma: no cover - subclass hook

    def single_source_many(self, queries: Sequence[int], method: str | None = None):
        """A batch of single-source queries (execution is subclass-specific)."""
        raise NotImplementedError  # pragma: no cover - subclass hook

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

    def close(self) -> None:
        """Release any resources the service holds.  Idempotent.

        The pool overrides this to stop its workers and unlink its shared
        memory; a closed service answers no further queries.
        """

    def __enter__(self):
        """Context-manager support: ``with service: ...`` guarantees
        :meth:`close` on exit, however the block ends."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
