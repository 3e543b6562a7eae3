"""The in-process SimRank query service: the one-worker sequential pool.

:class:`SimRankService` owns one (mutable) graph plus any number of
mounted registry estimators, answers single and batched (deduplicated)
queries, and keeps every estimator current as the graph changes.  It is
:class:`~repro.parallel.pool.ParallelSimRankService` with one worker on
the ``"sequential"`` executor, so the library, the workload driver and
``repro serve`` run one dispatch and maintenance implementation.  An
update burst is absorbed in place (``apply_updates`` on each replica)
when every mount's registry entry declares ``incremental_updates``
(``get_entry(name).capabilities``, also :meth:`capabilities`); otherwise
every replica is rebuilt on the updated graph.
"""

from __future__ import annotations

from typing import Sequence

from repro.api.estimator import SimRankEstimator
from repro.errors import ConfigurationError
from repro.parallel.pool import ParallelSimRankService, ServiceStats

__all__ = ["ServiceStats", "SimRankService"]


class SimRankService(ParallelSimRankService):
    """One graph, many estimators, batched queries, unified maintenance.

    >>> from repro.graph import DiGraph
    >>> g = DiGraph.from_edges([(0, 1), (1, 0), (2, 0), (2, 1)])
    >>> service = SimRankService(g, methods=("probesim",),
    ...                          configs={"probesim": {"eps_a": 0.2, "seed": 7}})
    >>> service.single_source(0).score(0)
    1.0

    Parameters
    ----------
    graph:
        The graph all estimators answer against.  A mutable
        :class:`~repro.graph.digraph.DiGraph` enables ``apply_edges``; a
        frozen CSR snapshot restricts the service to read-only queries.
    methods:
        Registry names to mount (see :mod:`repro.api.registry`), including
        those whose registry capabilities say ``parallel_safe=False``: one
        in-process replica has no per-worker rebuild to multiply.
    configs:
        Optional per-method keyword configuration, ``{name: {key: value}}``.
        A method taking a ``seed`` that is given none runs with seed 0.
    default_method:
        Method used when a query call passes ``method=None``
        (default: the first entry of ``methods``).
    auto_sync:
        When True (default), ``apply_edges`` syncs immediately; when False
        the caller flushes with ``sync`` before the next read.

    Raises
    ------
    ConfigurationError
        If ``methods`` is empty, ``configs`` names a method not in
        ``methods``, or ``default_method`` is not mounted.

    Thread model
    ------------
    Every call runs on its caller's thread.
    Query calls may come from several threads, concurrently with one
    thread applying updates and syncs: every worker RPC runs under the
    pool's dispatch lock, so they take turns on the replica, and the stats
    counters stay exact.  Multi-core serving is the pool itself with
    ``executor="process"``.
    """

    def __init__(
        self,
        graph,
        methods: Sequence[str] = ("probesim",),
        configs: dict[str, dict] | None = None,
        default_method: str | None = None,
        auto_sync: bool = True,
    ) -> None:
        super().__init__(
            graph, methods, configs, default_method, workers=1,
            executor="sequential", auto_sync=auto_sync,
        )

    def estimator(self, method: str | None = None) -> SimRankEstimator:
        """The estimator replica serving ``method`` (default when None).

        Raises
        ------
        ConfigurationError
            If ``method`` names no mounted method, or the service is closed.
        """
        key = self._resolve_method(method)
        if self._closed:
            raise ConfigurationError("service is closed")
        return self._workers[0].core.estimators[key]
