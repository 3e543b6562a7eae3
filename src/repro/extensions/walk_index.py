"""A lightweight walk-cache index (the paper's §7 future-work direction).

ProbeSim's per-query cost splits into (a) sampling ``nr`` √c-walks and
(b) probing their distinct prefixes.  For *repeated* queries on a slowly
changing graph, (a) and the trie construction can be cached: this index
stores, per registered node, the prefix trie of its walks
(:class:`~repro.core.walk_trie.WalkTrie`, Algorithm 3's reverse-reachability
tree as per-level arrays).  Queries then reuse the trie and only re-run the
probes — which always execute against the *current* graph, so
out-edge/in-degree changes are reflected immediately.

Correctness under updates: a cached trie is a sample from the √c-walk
distribution, which depends only on the in-neighbour lists of the nodes the
walks visit.  An update touching node ``v`` (as the *target* of an inserted /
deleted in-edge, changing ``I(v)``) staleness-invalidates exactly the cached
tries whose walks visit ``v``; all other tries remain exact samples.  The
node-to-query incidence map makes that invalidation O(#affected tries).

This keeps the index "lightweight" in the paper's sense: space is at most
O(#cached nodes * nr * E[walk length]) integers — independent of m — and
maintenance is a set lookup per update, versus TSF's Rg*n one-way graphs or
SLING's full rebuild.
"""

from __future__ import annotations

from repro.api.estimator import SimRankEstimator
from repro.core.config import ProbeSimConfig
from repro.core.engine import ProbeSim, QueryStats
from repro.core.results import SimRankResult
from repro.core.walk_trie import WalkTrie
from repro.graph.dynamic import EdgeUpdate
from repro.utils.sizing import deep_sizeof
from repro.utils.timer import Timer
from repro.utils.validation import check_query_node


class WalkIndex(SimRankEstimator):
    """Cached-walk accelerator around a :class:`ProbeSim` engine.

    >>> from repro.graph import DiGraph
    >>> g = DiGraph.from_edges([(0, 1), (1, 0), (2, 0), (2, 1)])
    >>> index = WalkIndex(g, eps_a=0.2, seed=3)
    >>> index.single_source(0).score(0)   # first call: samples + caches walks
    1.0
    >>> index.hit_rate                    # second call would be a cache hit
    0.0
    """

    def __init__(self, graph, config: ProbeSimConfig | None = None, **overrides) -> None:
        self._engine = ProbeSim(graph, config=config, **overrides)
        self._tries: dict[int, WalkTrie] = {}
        self._touched: dict[int, set[int]] = {}  # graph node -> cached query nodes
        self._stale = False  # graph mutated since the engine's last snapshot
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def engine(self) -> ProbeSim:
        return self._engine

    @property
    def config(self) -> ProbeSimConfig:
        return self._engine.config

    @property
    def hit_rate(self) -> float:
        """Fraction of queries served from a cached trie (0.0 before any query)."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    @property
    def evictions(self) -> int:
        """Cached tries dropped by update invalidation (cumulative).

        Under a mixed query/update workload this is the walk cache's
        maintenance bill in kind: each eviction forces the next query on
        that node to re-sample its walks.  ``invalidate_all`` counts every
        trie it drops.
        """
        return self._evictions

    def warm(self, nodes) -> None:
        """Pre-sample walk tries for the given (expected hot) query nodes."""
        for node in nodes:
            self._trie_for(node)

    def single_source(self, query: int) -> SimRankResult:
        """ProbeSim single-source answer, reusing the cached walk trie."""
        timer = Timer()
        with timer:
            trie = self._trie_for(query)
            query = trie.root  # the validated int id
            stats = QueryStats(num_walks=trie.num_walks)
            # Always probe deterministically: cache hits then return
            # bit-identical answers, which is the behaviour one expects of an
            # index (the hybrid's randomized switch would re-draw RNG state
            # on every hit).
            estimates = self._engine._finalize(
                self._engine.estimate_from_tree(trie, stats, hybrid=False), query
            )
        return SimRankResult(
            query=query,
            scores=estimates,
            num_walks=trie.num_walks,
            elapsed=timer.elapsed,
            method="probesim-walkindex",
        )

    # topk() and single_source_many() come from SimRankEstimator.

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #

    def sync(self) -> None:
        """Coarse maintenance: re-snapshot the engine and drop every trie.

        Used after bulk graph replacement; for individual edge updates the
        incremental :meth:`apply_updates` path keeps unaffected tries alive.
        """
        self.invalidate_all()

    def apply_updates(self, updates) -> None:
        """Incremental maintenance hook: fine-grained eviction per update."""
        for update in updates:
            self.apply_update(update)

    def apply_update(self, update: EdgeUpdate) -> None:
        """Invalidate cached tries whose walk distribution the update stales.

        The caller mutates the graph itself; this method evicts the cache
        entries that visit the update's *target* node, whose in-neighbour
        list changed, and marks the engine's snapshot stale.  The engine
        re-snapshots once, before the next query, not once per update.
        """
        self._stale = True
        for query in list(self._touched.get(update.target, ())):
            self._evict(query)

    def invalidate_all(self) -> None:
        """Drop every cached trie (e.g. after bulk graph replacement)."""
        self._evictions += len(self._tries)
        self._tries.clear()
        self._touched.clear()
        self._engine.sync()
        self._stale = False

    def index_bytes(self) -> int:
        """Actual Python memory of the cached tries + incidence map."""
        return deep_sizeof(self._tries) + deep_sizeof(self._touched)

    def payload_bytes(self) -> int:
        """C-equivalent payload: what a native implementation would store.

        The tries' level arrays (node, parent and weight per prefix) count
        at their buffer size; each incidence entry (node -> query) ~ 8
        bytes.  This is the number comparable to
        :meth:`repro.baselines.tsf.TSFIndex.index_bytes`, which measures raw
        array payloads.
        """
        trie_bytes = sum(
            array.nbytes
            for trie in self._tries.values()
            for level in trie.levels
            for array in (level.nodes, level.parents, level.weights)
        )
        incidence = sum(len(qs) for qs in self._touched.values())
        return trie_bytes + 8 * incidence

    @property
    def num_cached(self) -> int:
        return len(self._tries)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _trie_for(self, query) -> WalkTrie:
        if self._stale:  # one re-snapshot per update burst, not per update
            self._engine.sync()
            self._stale = False
        query = check_query_node(query, self._engine.graph.num_nodes)
        trie = self._tries.get(query)
        if trie is not None:
            self._hits += 1
            return trie
        self._misses += 1
        trie = self._engine._sample_trie(query, QueryStats())
        self._tries[query] = trie
        for node in _visited(trie):
            self._touched.setdefault(node, set()).add(query)
        return trie

    def _evict(self, query: int) -> None:
        """Drop ``query``'s trie and its incidence entries (its nodes only)."""
        trie = self._tries.pop(query)
        self._evictions += 1
        for node in _visited(trie):
            queries = self._touched[node]
            queries.discard(query)
            if not queries:
                del self._touched[node]

    def __repr__(self) -> str:
        return (
            f"WalkIndex(cached={self.num_cached}, hits={self._hits}, "
            f"misses={self._misses}, evictions={self._evictions})"
        )


def _visited(trie: WalkTrie) -> set[int]:
    """Every graph node the trie's walks visit (root included)."""
    return {trie.root}.union(*(level.nodes.tolist() for level in trie.levels))
