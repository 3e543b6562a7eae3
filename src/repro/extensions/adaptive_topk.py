"""Adaptive top-k: stop sampling once the ranking is statistically settled.

The paper answers top-k queries by running the full single-source estimator
(whose walk count ``n_r`` is sized for *every* node to reach ``eps_a``
accuracy) and sorting.  That is often wasteful for top-k: if the query has a
clear-cut answer, far fewer walks separate the k-th and (k+1)-th scores.

This extension samples √c-walks in geometric batches and, after each batch,
applies a Hoeffding confidence radius to the running estimates: per-trial
estimators lie in ``[0, 1]``, so after ``T`` walks every mean is within

    r(T) = sqrt( ln(2 n R / delta) / (2 T) )

of its expectation with probability ``1 - delta`` (union over nodes and over
the at most ``R`` stopping checks).  When the gap between the k-th and
(k+1)-th running estimates exceeds ``2 r(T)``, the top-k *set* is already
correct w.h.p. and sampling stops.  If separation never happens (ties or
near-ties), the loop runs to the Theorem 1 walk count and the result falls
back to the standard ``eps_a`` guarantee — so adaptivity never costs
correctness, only saves time when the instance is easy.

This is an extension beyond the paper (its §7 asks for "higher effectiveness
... without incurring significant space and time"); the ablation bench
measures what it saves on clear-cut versus ambiguous queries.
"""

from __future__ import annotations

import math

import numpy as np

from repro.api.estimator import Capabilities, SimRankEstimator
from repro.core.config import ProbeSimConfig
from repro.core.engine import ProbeSim, QueryStats
from repro.core.results import SimRankResult, TopKResult
from repro.errors import QueryError
from repro.utils.timer import Timer


class AdaptiveTopK(SimRankEstimator):
    """Early-stopping top-k SimRank on top of a :class:`ProbeSim` engine.

    Parameters
    ----------
    initial_batch:
        Walks in the first batch; each subsequent batch doubles (geometric
        batching keeps the number of stopping checks logarithmic).
    """

    def __init__(
        self,
        graph,
        config: ProbeSimConfig | None = None,
        initial_batch: int = 64,
        **overrides,
    ) -> None:
        if initial_batch <= 0:
            raise QueryError(f"initial_batch must be positive, got {initial_batch}")
        self._engine = ProbeSim(graph, config=config, **overrides)
        self.initial_batch = initial_batch
        self.last_walks_used = 0
        self.last_stopped_early = False

    @property
    def engine(self) -> ProbeSim:
        return self._engine

    @property
    def config(self) -> ProbeSimConfig:
        return self._engine.config

    def single_source(self, query: int) -> SimRankResult:
        """Full-budget single-source answer via the underlying engine.

        Adaptivity only pays off for top-k (the stopping rule needs a k-th /
        (k+1)-th gap), so single-source queries run the standard Theorem 1
        walk budget and are simply relabelled.
        """
        result = self._engine.single_source(query)
        result.method = "probesim-adaptive"
        return result

    def sync(self) -> None:
        """Re-snapshot the engine's graph (index-free maintenance)."""
        self._engine.sync()

    def capabilities(self) -> Capabilities:
        """Approximate, index-free, dynamic-friendly (O(m) sync)."""
        return Capabilities(
            method="probesim-adaptive",
            exact=False,
            index_based=False,
            supports_dynamic=True,
            incremental_updates=False,
            vectorized=False,
            parallel_safe=True,
        )

    def topk(self, query: int, k: int) -> TopKResult:
        """Adaptive approximate top-k query (Definition 2)."""
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        engine = self._engine
        engine._check_query(query)
        cfg = engine.config
        n = engine.graph.num_nodes
        if k >= n:
            raise QueryError(f"k={k} must be smaller than n={n}")

        walk_cap = cfg.walk_count(n)
        max_rounds = max(1, math.ceil(math.log2(walk_cap / self.initial_batch)) + 1)

        timer = Timer()
        with timer:
            # batch b takes the next slice of the query's walk bases, so a
            # run to the cap probes exactly the engine's own walk set
            bases = engine._walk_bases(query)
            score_sum = np.zeros(n, dtype=np.float64)
            total_walks = 0
            batch_size = self.initial_batch
            stopped_early = False
            while total_walks < walk_cap:
                batch = min(batch_size, walk_cap - total_walks)
                stats = QueryStats()
                trie = engine._sample_trie(
                    query, stats, bases[total_walks:total_walks + batch]
                )
                # estimate_from_tree returns the batch mean; re-weight to sum
                score_sum += batch * engine.estimate_from_tree(trie, stats)
                total_walks += batch
                batch_size *= 2

                means = score_sum / total_walks
                means[query] = -np.inf
                order = np.argsort(-means, kind="stable")
                gap = means[order[k - 1]] - means[order[k]]
                radius = math.sqrt(
                    math.log(2.0 * n * max_rounds / cfg.delta) / (2.0 * total_walks)
                )
                if gap > 2.0 * radius:
                    stopped_early = True
                    break

            estimates = engine._finalize(score_sum / total_walks, query)

        self.last_walks_used = total_walks
        self.last_stopped_early = stopped_early
        result = SimRankResult(
            query=query,
            scores=estimates,
            num_walks=total_walks,
            elapsed=timer.elapsed,
            method="probesim-adaptive",
        )
        return result.topk(k)

    def __repr__(self) -> str:
        return (
            f"AdaptiveTopK(initial_batch={self.initial_batch}, "
            f"last_walks={self.last_walks_used}, "
            f"early={self.last_stopped_early})"
        )
