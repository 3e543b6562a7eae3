"""The ProbeSim query engine (Algorithms 1, 3 and the §4 optimizations).

:class:`ProbeSim` answers approximate single-source and top-k SimRank queries
with the guarantee of Theorem 1/2: with probability at least ``1 - delta``,
every estimate is within ``eps_a`` of the true SimRank.  No index is built —
construction only snapshots the graph's adjacency into CSR arrays, which is
why the method supports dynamic graphs: after updates, :meth:`sync` (O(m),
just re-packing adjacency) brings the engine current, versus hours of index
reconstruction for SLING-style methods.

Strategies (``ProbeSimConfig.strategy``):

``basic``
    Algorithm 1: every walk prefix is probed independently.
``batch``
    Algorithm 3: walks are deduplicated in their prefix trie
    (:class:`~repro.core.walk_trie.WalkTrie`) and each distinct prefix is
    probed once with the deterministic PROBE, weighted by its multiplicity.
``randomized``
    Algorithm 1 with the randomized PROBE (Algorithm 4) — O(n) per walk in
    expectation, the engine's best worst-case complexity.
``hybrid``
    §4.4: batch over the trie; each path starts deterministic and switches to
    ``weight`` randomized continuations when its frontier grows past
    ``c0 * weight * n`` out-degree mass.
``native``
    Algorithm 3's estimate without the per-prefix loop: a hybrid
    sparse/dense level sweep over the walk trie, run as array operations
    (:mod:`repro.core.native`).  ``batch`` is its paper-literal oracle.

Every strategy samples its walks the same way: the counter-RNG sampler of
:mod:`repro.core.native` steps walk ``i`` from its own key, derived from
``(seed, query, i)``.  With an integer seed a query's walks are thus
independent of call order and batch composition, and every strategy draws
the same walk set.  ``batch`` and ``native`` then differ only by
float round-off and by the mass Pruning rule 2 drops in ``batch``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api.estimator import SimRankEstimator
from repro.core import native
from repro.core.config import ProbeSimConfig
from repro.core.native import fallback
from repro.core.probe import (
    frontier_edge_budget,
    probe_deterministic,
    propagate_frontier,
    prune_frontier,
)
from repro.core.randomized_probe import (
    probe_randomized,
    probe_randomized_from_membership,
)
from repro.core.results import SimRankResult
from repro.core.walk_trie import WalkTrie
from repro.errors import QueryError
from repro.graph.csr import CSRGraph, as_csr
from repro.utils.rng import as_generator, is_int_seed, query_stream
from repro.utils.timer import Timer
from repro.utils.validation import check_query_node


@dataclass
class QueryStats:
    """Diagnostics from the most recent query (used by tests and ablations)."""

    num_walks: int = 0
    num_probes: int = 0
    num_tree_nodes: int = 0
    num_hybrid_switches: int = 0
    walk_length_total: int = 0
    elapsed: float = 0.0
    #: native engine stages: walks and trie levels (one pass), and the sweep
    sample_seconds: float = 0.0
    sweep_seconds: float = 0.0

    @property
    def mean_walk_length(self) -> float:
        return self.walk_length_total / self.num_walks if self.num_walks else 0.0


def _count_walks(trie: WalkTrie, stats: QueryStats) -> None:
    """Record a trie's walk count and total walk length in ``stats``."""
    stats.num_walks = trie.num_walks
    # every walk contributes its root step plus one per surviving level
    stats.walk_length_total = trie.num_walks + sum(trie.level_weight_sums())


class ProbeSim(SimRankEstimator):
    """Index-free single-source / top-k SimRank (the paper's contribution).

    >>> from repro.graph import DiGraph
    >>> g = DiGraph.from_edges([(0, 1), (1, 0), (2, 0), (2, 1)])
    >>> engine = ProbeSim(g, eps_a=0.2, seed=7)
    >>> result = engine.single_source(0)
    >>> result.score(0)
    1.0

    The constructor accepts either a mutable :class:`DiGraph` (kept by
    reference; call :meth:`sync` after mutating it) or a frozen
    :class:`CSRGraph`.
    """

    def __init__(self, graph, config: ProbeSimConfig | None = None, **overrides) -> None:
        if config is None:
            config = ProbeSimConfig(**overrides)
        elif overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self._source_graph = graph
        self._csr = as_csr(graph)
        self._rng = as_generator(config.seed)
        self.last_stats = QueryStats()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> CSRGraph:
        """The CSR snapshot queries run against."""
        return self._csr

    def sync(self) -> None:
        """Re-snapshot the source graph after external mutations.

        This is the *entire* maintenance cost of ProbeSim under dynamic
        graphs (O(m) array packing); there is no index to rebuild.
        """
        self._csr = as_csr(self._source_graph)

    def single_source(self, query: int) -> SimRankResult:
        """Approximate single-source query (Definition 1) from ``query``."""
        query = check_query_node(query, self._csr.num_nodes)
        stats = QueryStats()
        timer = Timer()
        with timer:
            estimates = self._finalize(self._run(query, stats), query)
        stats.elapsed = timer.elapsed
        self.last_stats = stats
        return SimRankResult(
            query=query,
            scores=estimates,
            num_walks=stats.num_walks,
            elapsed=timer.elapsed,
            method=f"probesim-{self.config.strategy}",
        )

    # topk() and single_source_many() are inherited from SimRankEstimator:
    # top-k sorts the single-source estimates (Definition 2), and a batch is
    # the query loop.

    # ------------------------------------------------------------------ #
    # strategy dispatch
    # ------------------------------------------------------------------ #

    def _finalize(self, estimates: np.ndarray, query: int) -> np.ndarray:
        """Pin s(q, q) = 1 and apply the §4.1 truncation compensation."""
        cfg = self.config
        estimates[query] = 1.0
        if cfg.compensate_truncation and cfg.prune:
            # Truncation bias is one-sided (estimates undershoot by up to
            # eps_t); recentring halves its worst case (§4.1).
            estimates += cfg.budget.eps_t / 2.0
            estimates[query] = 1.0
        return estimates

    def _run(self, query: int, stats: QueryStats) -> np.ndarray:
        strategy = self.config.strategy
        if strategy == "native":
            return self._run_native_engine(query, stats)
        if strategy in ("batch", "hybrid"):
            return self._run_batch(query, stats, hybrid=strategy == "hybrid")
        walks = self._sample_walks(query, stats)
        if strategy == "basic":
            return self._run_basic(walks, stats)
        if strategy == "randomized":
            return self._run_randomized(walks, stats)
        raise QueryError(f"unknown strategy {strategy!r}")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # native engine (repro.core.native)
    # ------------------------------------------------------------------ #

    def _native_base(self, query: int) -> int:
        """The counter-RNG stream origin for one native query.

        With an integer seed the origin is a pure function of
        ``(seed, query)`` — the bit-reproducibility contract: the same query
        returns the same bytes no matter when it runs, what ran before it,
        or how a serving tier batched it.  Without one there is nothing to
        reproduce, so the origin is drawn from the engine's shared RNG.
        """
        seed = self.config.seed
        if is_int_seed(seed):
            return native.stream_base(int(seed), query)
        return native.stream_base(int(self._rng.integers(1 << 63)), query)

    def _run_native_engine(self, query: int, stats: QueryStats) -> np.ndarray:
        cfg = self.config
        ctx = native.context_for(self._csr, cfg.sqrt_c)
        scores, trie, stats.sample_seconds, stats.sweep_seconds = native.run_query(
            ctx,
            query,
            cfg.walk_count(self._csr.num_nodes),
            cfg.sqrt_c,
            cfg.walk_truncation(),
            self._native_base(query),
            native.resolve_impl(),
        )
        _count_walks(trie, stats)
        stats.num_tree_nodes = trie.num_tree_nodes
        stats.num_probes = trie.num_tree_nodes
        scores /= trie.num_walks
        return scores

    # ------------------------------------------------------------------ #
    # loop engine (per-prefix probes)
    # ------------------------------------------------------------------ #

    def _begin_query(self, query: int) -> None:
        """Rebase the RNG on the query's stream (:func:`query_stream`).

        With an integer seed every query's randomness starts from a stream
        derived only from ``(config.seed, query)``, so its answer is a pure
        function of ``(config, graph, query)`` — independent of call order
        and of how queries are grouped into batches.  Without one, queries
        keep advancing the shared stream.
        """
        self._rng = query_stream(self.config.seed, self._rng, query)

    def _walk_bases(self, query: int) -> np.ndarray:
        """Begin ``query`` and return the counter-RNG bases of its ``nr`` walks.

        Every strategy draws the same walk ``i`` from base ``i`` (native's
        :func:`~repro.core.native.walk_bases` over :meth:`_native_base`), so
        with an integer seed one ``(seed, query)`` pins one walk set across
        strategies; PROBE draws keep the query's :func:`query_stream`.
        """
        self._begin_query(query)
        nr = self.config.walk_count(self._csr.num_nodes)
        return native.walk_bases(self._native_base(query), nr)

    def _sample_walks(self, query: int, stats: QueryStats) -> list[list[int]]:
        """The query's √c-walks as node lists, in walk order."""
        csr = self._csr
        cfg = self.config
        nodes, lengths = fallback.sample_walks(
            csr.in_indptr, csr.in_indices, csr.in_degrees,
            self._walk_bases(query), query, cfg.sqrt_c, cfg.walk_truncation(),
        )
        stats.num_walks = len(lengths)
        stats.walk_length_total = int(lengths.sum())
        return [nodes[i, :length].tolist() for i, length in enumerate(lengths.tolist())]

    def _sample_trie(self, query: int, stats: QueryStats) -> WalkTrie:
        """The walk trie of the query's ``nr`` walks, built while the walks
        step."""
        bases = self._walk_bases(query)
        csr = self._csr
        cfg = self.config
        levels = fallback.sample_trie_levels(
            csr.in_indptr, csr.in_indices, csr.in_degrees,
            bases, query, cfg.sqrt_c, cfg.walk_truncation(),
        )
        trie = WalkTrie(query, len(bases), levels)
        _count_walks(trie, stats)
        return trie

    def _run_basic(self, walks: list[list[int]], stats: QueryStats) -> np.ndarray:
        cfg = self.config
        n = self._csr.num_nodes
        acc = np.zeros(n, dtype=np.float64)
        eps_p = cfg.prune_threshold()
        for walk in walks:
            for i in range(2, len(walk) + 1):
                acc += probe_deterministic(self._csr, walk[:i], cfg.sqrt_c, eps_p)
                stats.num_probes += 1
        acc /= stats.num_walks
        return acc

    def _run_randomized(self, walks: list[list[int]], stats: QueryStats) -> np.ndarray:
        cfg = self.config
        n = self._csr.num_nodes
        acc = np.zeros(n, dtype=np.float64)
        for walk in walks:
            for i in range(2, len(walk) + 1):
                selected = probe_randomized(self._csr, walk[:i], cfg.sqrt_c, self._rng)
                if len(selected):
                    acc[selected] += 1.0
                stats.num_probes += 1
        acc /= stats.num_walks
        return acc

    def _run_batch(self, query: int, stats: QueryStats, hybrid: bool) -> np.ndarray:
        return self.estimate_from_tree(self._sample_trie(query, stats), stats, hybrid=hybrid)

    def estimate_from_tree(
        self, tree: WalkTrie, stats: QueryStats | None = None, hybrid: bool | None = None
    ) -> np.ndarray:
        """Algorithm 3's probing loop over an existing walk trie.

        Exposed separately so walk caches (:mod:`repro.extensions.walk_index`)
        can reuse precomputed tries; estimates are always probed against the
        engine's *current* graph snapshot.  Prefixes are probed in the trie's
        level order, which is also the order the §4.4 hybrid draws in.
        """
        cfg = self.config
        if stats is None:
            stats = QueryStats(num_walks=tree.num_walks)
        if hybrid is None:
            hybrid = cfg.strategy == "hybrid"
        n = self._csr.num_nodes
        acc = np.zeros(n, dtype=np.float64)
        stats.num_tree_nodes = tree.num_tree_nodes
        nr = tree.num_walks
        eps_p = cfg.prune_threshold()
        for prefix, weight in tree.iter_prefixes():
            stats.num_probes += 1
            if hybrid:
                contribution = self._probe_path_hybrid(prefix, weight, eps_p, stats)
            else:
                contribution = weight * probe_deterministic(
                    self._csr, prefix, cfg.sqrt_c, eps_p
                )
            acc += contribution
        acc /= nr
        return acc

    # ------------------------------------------------------------------ #
    # §4.4 hybrid path probing
    # ------------------------------------------------------------------ #

    def _probe_path_hybrid(
        self,
        prefix: list[int],
        weight: int,
        eps_p: float,
        stats: QueryStats,
    ) -> np.ndarray:
        """Probe one trie path; start deterministic, switch to randomized when
        the frontier's out-degree mass exceeds ``c0 * weight * n``.

        Returns the path's weighted score contribution (already multiplied by
        ``weight``; the caller divides by ``nr``).
        """
        cfg = self.config
        graph = self._csr
        n = graph.num_nodes
        i = len(prefix)
        sqrt_c = cfg.sqrt_c
        switch_mass = cfg.hybrid_switch_constant * weight * n
        edge_budget = frontier_edge_budget(graph)

        score = np.zeros(n, dtype=np.float64)
        score[prefix[-1]] = 1.0
        frontier = np.array([prefix[-1]], dtype=np.int64)

        for j in range(i - 1):
            frontier = prune_frontier(score, frontier, sqrt_c ** (i - j - 1), eps_p)
            if len(frontier) == 0:
                return np.zeros(n, dtype=np.float64)
            if int(graph.out_degrees[frontier].sum()) > switch_mass:
                # Deterministic cost from here exceeds c0 * w * n: finish with
                # `weight` independent randomized continuations instead.
                # Membership is Bernoulli-sampled from the deterministic
                # marginals, preserving per-node unbiasedness (Lemma 6's
                # recursion only constrains level marginals).
                stats.num_hybrid_switches += 1
                contribution = np.zeros(n, dtype=np.float64)
                for _ in range(weight):
                    membership = self._rng.random(n) < score
                    selected = probe_randomized_from_membership(
                        graph, prefix, j, membership, sqrt_c, self._rng
                    )
                    if len(selected):
                        contribution[selected] += 1.0
                return contribution
            avoid = prefix[i - j - 2]
            score, frontier = propagate_frontier(
                graph, score, frontier, avoid, sqrt_c, edge_budget
            )
            if len(frontier) == 0:
                break
        return weight * score

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        return (
            f"ProbeSim(n={self._csr.num_nodes}, m={self._csr.num_edges}, "
            f"strategy={self.config.strategy!r}, eps_a={self.config.eps_a})"
        )
