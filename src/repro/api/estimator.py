"""The :class:`SimRankEstimator` protocol every query method conforms to.

The paper's experiments compare six methods through one conceptual interface
— "answer single-source / top-k SimRank on a (possibly dynamic) graph" — and
this module makes that interface first-class.  Every estimator (ProbeSim, the
five baselines, and both extensions) speaks four verbs:

``single_source(query)``
    One approximate (or exact) single-source query, Definition 1.
``topk(query, k)``
    One approximate top-k query, Definition 2.
``single_source_many(queries)``
    A batch of single-source queries — the serving hot path.  The contract is
    *loop equivalence*: under a fixed seed, the returned list is element-wise
    identical to calling :meth:`single_source` in a loop, so callers can batch
    freely without changing results.  Overrides may amortize work across the
    batch only in ways that preserve this equivalence.
``sync()``
    The unified dynamic-maintenance verb.  Whatever a method must do after
    the underlying graph changed — re-snapshot adjacency (ProbeSim, Monte
    Carlo, TopSim), recompute a matrix (Power Method), or rebuild an index
    (SLING, TSF) — happens here.  The pre-2.0 per-method verbs
    (``refresh()``, ``rebuild()``) were removed in 2.0.

What a method can do is not an instance verb: its :class:`Capabilities`
descriptor is declared once, in its registry entry
(``repro.api.registry.get_entry(name).capabilities``), so callers (the pool,
the CLI, the benchmark harness) select methods without building one.

The ABC also performs a *structural* ``isinstance`` check: any object whose
class provides all four verbs counts as a ``SimRankEstimator``, so existing
duck-typed method objects keep working without inheriting from this class.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.errors import QueryError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.results import SimRankResult, TopKResult
    from repro.graph.dynamic import EdgeUpdate

#: the verbs a class must provide to count structurally as an estimator.
PROTOCOL_VERBS = (
    "single_source",
    "topk",
    "single_source_many",
    "sync",
)


@dataclass(frozen=True)
class Capabilities:
    """What an estimator can do, for programmatic method selection.

    Parameters
    ----------
    method:
        The estimator's canonical method name (matches ``SimRankResult.method``).
    exact:
        True when answers are exact SimRank (Power Method); False for every
        approximate method.
    index_based:
        True when queries are served from a precomputed structure (SLING,
        TSF, the walk cache); False for index-free methods.
    supports_dynamic:
        True when the method is *practical* on dynamic graphs — maintenance
        after an update is cheap (an O(m) re-snapshot or an incremental
        patch) rather than a from-scratch rebuild.  :meth:`SimRankEstimator.sync`
        works either way; this flag is advisory metadata for method selection.
    incremental_updates:
        True when :meth:`SimRankEstimator.apply_updates` patches state
        per-edge instead of falling back to a full :meth:`~SimRankEstimator.sync`.
    vectorized:
        True when queries execute through a level-synchronous array sweep
        (one pass per trie level over the whole walk batch — ProbeSim's
        native engine, :mod:`repro.core.native`) rather than per-walk
        interpreter loops.  Serving layers prefer vectorized methods for
        high-throughput batches.
    parallel_safe:
        True when the method is practical behind the process-parallel
        serving layer (:class:`repro.parallel.pool.ParallelSimRankService`):
        per-worker replicas are affordable to construct, and the epoch
        maintenance model — a full replica rebuild against the shared graph
        after each update batch — costs no more than the method's own
        :meth:`SimRankEstimator.sync`.  False for static rebuild-only
        indexes (SLING) and dense exact solvers (Power Method), whose
        per-worker-per-epoch rebuild would dominate serving.
    """

    method: str
    exact: bool
    index_based: bool
    supports_dynamic: bool
    incremental_updates: bool = False
    vectorized: bool = False
    parallel_safe: bool = False

    def as_row(self) -> dict[str, object]:
        """Flat dict row for table rendering (CLI ``methods`` subcommand)."""
        return {
            "method": self.method,
            "exact": self.exact,
            "index": self.index_based,
            "dynamic": self.supports_dynamic,
            "incremental": self.incremental_updates,
            "vectorized": self.vectorized,
            "parallel": self.parallel_safe,
        }


class SimRankEstimator(abc.ABC):
    """Abstract base / structural protocol for every SimRank query method.

    Subclasses implement :meth:`single_source` and :meth:`sync`; they
    inherit default implementations of
    :meth:`topk` (sort the single-source estimates), :meth:`single_source_many`
    (loop — overrides must preserve fixed-seed loop equivalence), and
    :meth:`apply_updates` (fall back to one :meth:`sync`).
    """

    @abc.abstractmethod
    def single_source(self, query: int) -> SimRankResult:
        """Answer one single-source query (Definition 1) from ``query``."""

    @abc.abstractmethod
    def sync(self) -> None:
        """Bring the estimator current with its source graph after mutations.

        This is the unified maintenance verb: re-snapshot adjacency for
        index-free methods, rebuild the index for index-based ones.
        """

    def topk(self, query: int, k: int) -> TopKResult:
        """Approximate top-k query (Definition 2): the ``k`` best nodes by
        the single-source estimates, query node excluded."""
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        return self.single_source(query).topk(k)

    def single_source_many(self, queries: Sequence[int]) -> list[SimRankResult]:
        """Answer a batch of single-source queries.

        Equivalent, under a fixed seed, to calling :meth:`single_source` in a
        loop over ``queries`` — batching never changes results.  Subclasses
        may override to amortize work across the batch as long as that
        equivalence is preserved.
        """
        return [self.single_source(query) for query in queries]

    def apply_updates(self, updates: Iterable[EdgeUpdate]) -> None:
        """React to graph updates that the caller already applied.

        The default is the coarse response — one :meth:`sync` regardless of
        how many updates arrived.  Estimators with incremental maintenance
        (TSF's one-way-graph patching, the walk cache's fine-grained
        eviction) override this and declare ``incremental_updates`` in
        their registry entry's :class:`Capabilities`.
        """
        del updates  # the coarse response does not depend on what changed
        self.sync()

    @classmethod
    def __subclasshook__(cls, subclass: type) -> Any:
        """Structural check: any class providing the four verbs conforms.

        Returns ``bool | NotImplemented`` — NotImplemented defers to the
        regular ABC machinery rather than rejecting outright.
        """
        if cls is not SimRankEstimator:
            return NotImplemented
        if all(callable(getattr(subclass, verb, None)) for verb in PROTOCOL_VERBS):
            return True
        return NotImplemented
