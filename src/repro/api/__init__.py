"""Unified estimator protocol, method registry, and batched query service.

This package is the system's API layer:

:class:`~repro.api.estimator.SimRankEstimator` / :class:`~repro.api.estimator.Capabilities`
    The protocol every query method speaks — ``single_source``, ``topk``,
    ``single_source_many`` (batched) and ``sync`` (unified dynamic
    maintenance) — and the capability descriptor used for programmatic
    method selection.
:mod:`~repro.api.registry`
    Name → factory registry (``create("probesim", graph, eps_a=0.1)``)
    behind the CLI, the experiment runner, and the benchmark harness; each
    entry is the one declaration of its method's :class:`Capabilities`.
:class:`~repro.api.service.SimRankService`
    The in-process serving layer: one graph plus many estimators, with
    batched (deduplicated) queries and update maintenance.  It is the
    one-worker sequential form of
    :class:`~repro.parallel.pool.ParallelSimRankService`, whose verbs and
    :class:`~repro.parallel.pool.ServiceStats` counters the HTTP front
    door speaks.
"""

from repro.api.estimator import Capabilities, SimRankEstimator
from repro.api.registry import (
    MethodEntry,
    available_methods,
    capability_rows,
    create,
    get_entry,
    method_names,
    register,
)
from repro.api.service import ServiceStats, SimRankService

__all__ = [
    "Capabilities",
    "MethodEntry",
    "ServiceStats",
    "SimRankEstimator",
    "SimRankService",
    "available_methods",
    "capability_rows",
    "create",
    "get_entry",
    "method_names",
    "register",
]
