"""Experiment runner: execute method x query grids and aggregate the metrics
the paper reports.

A *method* is any :class:`repro.api.estimator.SimRankEstimator` (structural
conformance suffices); a :class:`MethodSpec` binds a display name to a
zero-argument factory so each experiment constructs fresh instances (with
fresh seeds) per dataset.  :meth:`MethodSpec.from_registry` is the standard
way to build specs — it routes construction through
:mod:`repro.api.registry`, so experiment scripts never hand-wire estimator
classes.

:func:`run_single_source` reproduces the Figure 4 protocol (average max
AbsError and average query time over a query set); :func:`run_topk` the
Figures 5-7 protocol (Precision@k / NDCG@k / τk against exact ground truth).
Both push the whole query set through the estimator's batched
``single_source_many`` hot path.  Pooling runs (Figures 8-10) are assembled
in the benchmark harness from :func:`repro.eval.pooling.pool_evaluate`
because they need all methods' lists per query before anything can be scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.api.estimator import SimRankEstimator
from repro.api.registry import create
from repro.errors import EvaluationError
from repro.eval.ground_truth import GroundTruth
from repro.eval.metrics import abs_error_max, kendall_tau, ndcg_at_k, precision_at_k


@dataclass(frozen=True)
class MethodSpec:
    """A named, lazily-constructed query method (thin registry wrapper)."""

    name: str
    factory: Callable[[], object]

    @classmethod
    def from_registry(cls, method: str, graph, label: str | None = None, **config):
        """A spec whose factory constructs ``method`` through the registry.

        ``label`` overrides the display name (e.g. ``probesim(eps=0.05)``
        for parameter sweeps); ``config`` is passed to the registry factory
        on every :meth:`build`.
        """
        return cls(label or method, lambda: create(method, graph, **config))

    def build(self) -> SimRankEstimator:
        """Construct a fresh method instance and check protocol conformance."""
        method = self.factory()
        if not isinstance(method, SimRankEstimator):
            raise EvaluationError(
                f"method {self.name!r} does not conform to the SimRankEstimator "
                f"protocol (needs single_source/topk/single_source_many/sync)"
            )
        return method


@dataclass
class SingleSourceOutcome:
    """Aggregated Figure 4-style numbers for one method on one dataset."""

    method: str
    abs_errors: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)

    @property
    def mean_abs_error(self) -> float:
        return float(np.mean(self.abs_errors)) if self.abs_errors else 0.0

    @property
    def mean_time(self) -> float:
        return float(np.mean(self.times)) if self.times else 0.0

    def as_row(self) -> dict[str, object]:
        """Flat dict row for table rendering."""
        return {
            "method": self.method,
            "abs_error": self.mean_abs_error,
            "query_time_s": self.mean_time,
            "queries": len(self.abs_errors),
        }


@dataclass
class TopKOutcome:
    """Aggregated Figures 5-7 numbers for one method on one dataset."""

    method: str
    precisions: list[float] = field(default_factory=list)
    ndcgs: list[float] = field(default_factory=list)
    taus: list[float] = field(default_factory=list)
    times: list[float] = field(default_factory=list)

    @property
    def mean_precision(self) -> float:
        return float(np.mean(self.precisions)) if self.precisions else 0.0

    @property
    def mean_ndcg(self) -> float:
        return float(np.mean(self.ndcgs)) if self.ndcgs else 0.0

    @property
    def mean_tau(self) -> float:
        return float(np.mean(self.taus)) if self.taus else 0.0

    @property
    def mean_time(self) -> float:
        return float(np.mean(self.times)) if self.times else 0.0

    def as_row(self) -> dict[str, object]:
        """Flat dict row for table rendering."""
        return {
            "method": self.method,
            "precision": self.mean_precision,
            "ndcg": self.mean_ndcg,
            "tau": self.mean_tau,
            "query_time_s": self.mean_time,
            "queries": len(self.precisions),
        }


def run_single_source(
    methods: Sequence[MethodSpec],
    queries: Sequence[int],
    ground_truth: GroundTruth,
) -> list[SingleSourceOutcome]:
    """Figure 4 protocol: per-query max AbsError + query time, averaged."""
    if not queries:
        raise EvaluationError("need at least one query node")
    outcomes = []
    for spec in methods:
        method = spec.build()
        outcome = SingleSourceOutcome(method=spec.name)
        for query, result in zip(queries, method.single_source_many(list(queries))):
            truth = ground_truth.single_source(query)
            outcome.abs_errors.append(
                abs_error_max(result.scores, truth, query)
            )
            outcome.times.append(result.elapsed)
        outcomes.append(outcome)
    return outcomes


def run_topk(
    methods: Sequence[MethodSpec],
    queries: Sequence[int],
    ground_truth: GroundTruth,
    k: int,
) -> list[TopKOutcome]:
    """Figures 5-7 protocol: top-k quality against exact ground truth."""
    if not queries:
        raise EvaluationError("need at least one query node")
    if k <= 0:
        raise EvaluationError(f"k must be positive, got {k}")
    outcomes = []
    for spec in methods:
        method = spec.build()
        outcome = TopKOutcome(method=spec.name)
        for query, result in zip(queries, method.single_source_many(list(queries))):
            top = result.topk(k)
            truth = ground_truth.single_source(query)
            outcome.precisions.append(precision_at_k(top.nodes, truth, k, query))
            outcome.ndcgs.append(ndcg_at_k(top.nodes, truth, k, query))
            outcome.taus.append(kendall_tau(top.nodes, truth, query))
            outcome.times.append(result.elapsed)
        outcomes.append(outcome)
    return outcomes
