"""Monte Carlo SimRank estimation with √c-walks (§2.2; Fogaras & Rácz).

Two estimators:

:meth:`MonteCarlo.single_pair`
    ``s(u, v) = Pr[W'(u), W'(v) meet]`` (Eq. 3): simulate ``r`` independent
    √c-walk pairs, return the meeting fraction.  By the Chernoff bound,
    ``r >= 1 / (2 eps^2) * log(1 / delta)`` gives ``eps`` absolute error with
    probability ``1 - delta``.  This estimator (with a tightened budget) is
    the pooling "expert" for the large-graph experiments (§6.2).

:meth:`MonteCarlo.single_source`
    The fingerprint construction: ``r`` walks from *every* node, pairing walk
    ``j`` of ``u`` with walk ``j`` of ``v``; the meeting fraction estimates
    ``s(u, v)`` for all ``v`` simultaneously.  This is the index-free
    competitor whose "considerable query overheads" motivated ProbeSim.

Both estimators step all live walks in lock-step with vectorised in-neighbour
sampling, which keeps the large walk counts tractable in Python.
"""

from __future__ import annotations

import math

import numpy as np

from repro.api.estimator import SimRankEstimator
from repro.core.results import SimRankResult
from repro.graph.csr import as_csr
from repro.utils.rng import as_generator, query_stream
from repro.utils.timer import Timer
from repro.utils.validation import check_positive_int, check_probability, check_query_node


def pair_sample_size(eps: float, delta: float) -> int:
    """Chernoff budget ``r = ceil(1 / (2 eps^2) * log(1 / delta))`` (§2.2)."""
    check_probability("eps", eps)
    check_probability("delta", delta)
    return max(1, math.ceil(math.log(1.0 / delta) / (2.0 * eps * eps)))


def source_sample_size(eps: float, delta: float, num_nodes: int) -> int:
    """Chernoff + union-bound walk budget for a *single-source* estimate.

    Each of the ``n - 1`` per-node meeting fractions is a mean of ``r``
    indicator variables, so ``r = ceil(log(2 n / delta) / (2 eps^2))`` makes
    every estimate ``eps``-accurate simultaneously with probability
    ``1 - delta`` (the paper's §2 accuracy setup, union-bounded over nodes).
    """
    check_probability("eps", eps)
    check_probability("delta", delta)
    check_positive_int("num_nodes", num_nodes)
    return max(
        1, math.ceil(math.log(2.0 * num_nodes / delta) / (2.0 * eps * eps))
    )


class MonteCarlo(SimRankEstimator):
    """√c-walk Monte Carlo estimator over a CSR snapshot.

    ``eps_a`` / ``delta`` size the default single-source walk budget via
    :func:`source_sample_size`; ``num_walks`` (constructor or per-call)
    overrides it.
    """

    #: hard cap on simulated steps; the chance of a √c-walk pair surviving
    #: this long is c^MAX_STEPS (< 1e-22 at c = 0.6).
    MAX_STEPS = 100

    def __init__(
        self,
        graph,
        c: float = 0.6,
        seed=None,
        eps_a: float = 0.1,
        delta: float = 0.01,
        num_walks: int | None = None,
    ) -> None:
        check_probability("c", c)
        check_probability("eps_a", eps_a)
        check_probability("delta", delta)
        if num_walks is not None:
            check_positive_int("num_walks", num_walks)
        self._source_graph = graph
        self._csr = as_csr(graph)
        self.c = c
        self.sqrt_c = math.sqrt(c)
        self.eps_a = eps_a
        self.delta = delta
        self.num_walks = num_walks
        self._seed = seed
        self._rng = as_generator(seed)

    def walk_count(self) -> int:
        """The single-source walk budget: ``num_walks`` when set, otherwise
        the (eps_a, delta) Chernoff bound of :func:`source_sample_size`."""
        if self.num_walks is not None:
            return self.num_walks
        return source_sample_size(self.eps_a, self.delta, self._csr.num_nodes)

    def sync(self) -> None:
        """Re-snapshot the source graph (index-free: the whole maintenance)."""
        self._csr = as_csr(self._source_graph)

    # ------------------------------------------------------------------ #
    # single pair
    # ------------------------------------------------------------------ #

    def single_pair(self, u: int, v: int, num_samples: int) -> float:
        """Estimate ``s(u, v)`` from ``num_samples`` independent walk pairs."""
        u = check_query_node(u, self._csr.num_nodes)
        v = check_query_node(v, self._csr.num_nodes)
        check_positive_int("num_samples", num_samples)
        if u == v:
            return 1.0
        rng = self._rng
        graph = self._csr

        met_total = 0
        remaining = num_samples
        block_size = 65_536
        while remaining > 0:
            r = min(block_size, remaining)
            remaining -= r
            pos_u = np.full(r, u, dtype=np.int64)
            pos_v = np.full(r, v, dtype=np.int64)
            alive = np.ones(r, dtype=bool)
            for _ in range(self.MAX_STEPS):
                idx = np.nonzero(alive)[0]
                if len(idx) == 0:
                    break
                # both walks must take another step: joint probability c
                survive = rng.random(len(idx)) < self.c
                idx = idx[survive]
                alive[:] = False
                if len(idx) == 0:
                    break
                nxt_u = graph.sample_in_neighbors(pos_u[idx], rng)
                nxt_v = graph.sample_in_neighbors(pos_v[idx], rng)
                ok = (nxt_u >= 0) & (nxt_v >= 0)
                idx, nxt_u, nxt_v = idx[ok], nxt_u[ok], nxt_v[ok]
                pos_u[idx] = nxt_u
                pos_v[idx] = nxt_v
                met = nxt_u == nxt_v
                met_total += int(met.sum())
                keep = idx[~met]
                alive[keep] = True
        return met_total / num_samples

    def pair_with_guarantee(self, u: int, v: int, eps: float, delta: float) -> float:
        """``single_pair`` with the Chernoff sample budget for (eps, delta)."""
        return self.single_pair(u, v, pair_sample_size(eps, delta))

    # ------------------------------------------------------------------ #
    # single source (fingerprints)
    # ------------------------------------------------------------------ #

    def single_source(self, query: int, num_walks: int | None = None) -> SimRankResult:
        """Estimate ``s(query, v)`` for all ``v`` with ``num_walks`` fingerprints
        (default: the :meth:`walk_count` Chernoff budget).

        Walk ``j`` starts at every node simultaneously; node ``v``'s pair
        (query-walk j, v-walk j) counts as met if the two walks occupy the
        same node at the same step with both still alive.
        """
        query = check_query_node(query, self._csr.num_nodes)
        if num_walks is None:
            num_walks = self.walk_count()
        check_positive_int("num_walks", num_walks)
        graph = self._csr
        rng = query_stream(self._seed, self._rng, query)
        n = graph.num_nodes

        timer = Timer()
        with timer:
            meets = np.zeros(n, dtype=np.int64)
            for _ in range(num_walks):
                pos = np.arange(n, dtype=np.int64)
                alive = np.ones(n, dtype=bool)
                met = np.zeros(n, dtype=bool)
                for _ in range(self.MAX_STEPS):
                    if not alive[query]:
                        break
                    cont = rng.random(n) < self.sqrt_c
                    alive &= cont
                    if not alive[query]:
                        break
                    idx = np.nonzero(alive)[0]
                    nxt = graph.sample_in_neighbors(pos[idx], rng)
                    dead = nxt < 0
                    alive[idx[dead]] = False
                    if not alive[query]:
                        break
                    moved = idx[~dead]
                    pos[moved] = nxt[~dead]
                    just_met = alive & (pos == pos[query]) & ~met
                    just_met[query] = False
                    met |= just_met
                meets += met
            scores = meets.astype(np.float64) / num_walks
            scores[query] = 1.0
        return SimRankResult(
            query=query,
            scores=scores,
            num_walks=num_walks,
            elapsed=timer.elapsed,
            method="mc",
        )

    def __repr__(self) -> str:
        return f"MonteCarlo(n={self._csr.num_nodes}, c={self.c})"
