"""TSF — the two-stage random-walk sampling framework (Shao et al., §2.3).

Preprocessing stage
    Build ``Rg`` *one-way graphs*.  Each one-way graph samples, for every
    node, one of its in-neighbours (or none); it is a functional graph, so
    every node has exactly one deterministic "walk" through it.  The index is
    ``Rg`` int32 arrays of length ``n`` plus their reversed adjacency (built
    lazily per one-way graph for query traversal) — which is why TSF's index
    is one to two orders of magnitude larger than the graph (Table 4).

Query stage
    For each one-way graph, sample ``Rq`` ordinary reverse random walks from
    the query node ``u`` on the *original* graph.  For a query walk
    ``(u_0, u_1, ..., u_T)`` and every node ``v`` whose one-way walk satisfies
    ``g^t(v) = u_t``, add ``c^t``.  The estimate averages over the
    ``Rg * Rq`` (one-way graph, query walk) pairs.

Faithful to the paper's two caveats, both of which break any worst-case
guarantee (and are visible in the reproduced accuracy figures):

1. meetings are summed over *all* steps, an over-estimate of the
   first-meeting probability (their §3.3);
2. a node's walk within a one-way graph is deterministic, so the ``Rq``
   query-side walks reuse the same ``v``-side randomness (their §3.2 cycle
   assumption).

Dynamic updates (the reason TSF is the paper's dynamic-graph competitor) are
implemented as in their §4: an inserted edge ``(w, v)`` replaces ``g(v)`` with
``w`` with probability ``1/|I(v)|`` per one-way graph; a deleted edge
resamples ``g(v)`` if it was the deleted one.
"""

from __future__ import annotations

import numpy as np

from repro.api.estimator import SimRankEstimator
from repro.core.results import SimRankResult
from repro.graph.csr import as_csr
from repro.graph.digraph import DiGraph
from repro.graph.dynamic import EdgeUpdate
from repro.utils.rng import as_generator, query_stream
from repro.utils.timer import Timer
from repro.utils.validation import check_positive_int, check_probability, check_query_node


class TSFIndex(SimRankEstimator):
    """One-way-graph index for top-k SimRank on dynamic graphs.

    Parameters mirror the paper's: ``rg`` one-way graphs (they use 300),
    ``rq`` query walks per one-way graph (40), query walk ``depth``
    (bounded; contributions decay as ``c^t``).
    """

    def __init__(
        self,
        graph,
        c: float = 0.6,
        rg: int = 300,
        rq: int = 40,
        depth: int = 10,
        seed=None,
    ) -> None:
        check_probability("c", c)
        check_positive_int("rg", rg)
        check_positive_int("rq", rq)
        check_positive_int("depth", depth)
        self._source_graph = graph
        self._csr = as_csr(graph)
        self.c = c
        self.rg = rg
        self.rq = rq
        self.depth = depth
        self._seed = seed
        #: build and apply_update draws only; query walks use query_stream
        self._rng = as_generator(seed)

        self._one_way: list[np.ndarray] = []
        self._reverse: list[tuple[np.ndarray, np.ndarray] | None] = []
        self._build_time = 0.0
        self._build()

    # ------------------------------------------------------------------ #
    # preprocessing
    # ------------------------------------------------------------------ #

    def _build(self) -> None:
        """Sample the ``Rg`` one-way graphs (the preprocessing stage)."""
        timer = Timer()
        with timer:
            graph = self._csr
            n = graph.num_nodes
            all_nodes = np.arange(n, dtype=np.int64)
            self._one_way = []
            self._reverse = []
            for _ in range(self.rg):
                sampled = graph.sample_in_neighbors(all_nodes, self._rng)
                self._one_way.append(sampled.astype(np.int32))
                self._reverse.append(None)  # built lazily on first query
        self._build_time = timer.elapsed

    @property
    def build_time(self) -> float:
        """Preprocessing wall-clock of the last (re)build."""
        return self._build_time

    def sync(self) -> None:
        """Re-snapshot the graph and resample every one-way graph.

        This is the coarse (from-scratch) maintenance path; prefer
        :meth:`apply_updates` for streams of individual edge changes.
        """
        self._csr = as_csr(self._source_graph)
        self._build()

    def _reverse_adjacency(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style children arrays of one-way graph ``index``.

        ``children(w) = {v : g(v) = w}`` — the sets walked by the reversed
        traversal during queries.
        """
        cached = self._reverse[index]
        if cached is not None:
            return cached
        g = self._one_way[index]
        n = len(g)
        valid = g >= 0
        counts = np.bincount(g[valid].astype(np.int64), minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(valid.sum()), dtype=np.int32)
        sources = np.nonzero(valid)[0]
        targets = g[valid].astype(np.int64)
        order = np.argsort(targets, kind="stable")
        indices[:] = sources[order]
        # positions come out grouped by target thanks to the sort
        self._reverse[index] = (indptr, indices)
        return self._reverse[index]

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def _walk_graph(self):
        """Graph used for query-side walks: the live DiGraph when available,
        so updates are reflected without re-snapshotting."""
        if isinstance(self._source_graph, DiGraph):
            return self._source_graph
        return self._csr

    def _sample_query_walk(self, query: int, rng) -> list[int]:
        """Ordinary reverse random walk of length <= depth on the original graph."""
        graph = self._walk_graph()
        walk = [query]
        current = query
        for _ in range(self.depth):
            nxt = graph.random_in_neighbor(current, rng)
            if nxt is None:
                break
            walk.append(nxt)
            current = nxt
        return walk

    def _descendants_at_depths(
        self, index: int, walk: list[int], acc: np.ndarray, weight: float
    ) -> None:
        """Add ``weight * c^t`` to every node whose one-way walk meets ``walk``
        at step ``t`` (for all t >= 1)."""
        indptr, indices = self._reverse_adjacency(index)
        for t in range(1, len(walk)):
            # {v : g^t(v) = u_t} is exactly the set t reverse levels below u_t.
            level = self._expand_reverse(
                indptr, indices, np.array([walk[t]], dtype=np.int64), t
            )
            if len(level) == 0:
                continue
            decay = weight * (self.c**t)
            acc[level] += decay

    @staticmethod
    def _expand_reverse(
        indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray, levels: int
    ) -> np.ndarray:
        """Nodes exactly ``levels`` reverse steps below ``frontier``."""
        for _ in range(levels):
            if len(frontier) == 0:
                return frontier
            chunks = [
                indices[indptr[node] : indptr[node + 1]] for node in frontier.tolist()
            ]
            if not chunks:
                return np.empty(0, dtype=np.int64)
            frontier = np.concatenate(chunks).astype(np.int64)
            # one-way graphs are functional: a node has exactly one parent, so
            # no deduplication is needed — children sets are disjoint.
        return frontier

    def single_source(self, query: int) -> SimRankResult:
        """TSF single-source estimate (the paper's over-estimating score)."""
        query = check_query_node(query, self._csr.num_nodes)
        timer = Timer()
        with timer:
            n = self._csr.num_nodes
            acc = np.zeros(n, dtype=np.float64)
            weight = 1.0 / (self.rg * self.rq)
            rng = query_stream(self._seed, self._rng, query)
            for index in range(self.rg):
                for _ in range(self.rq):
                    walk = self._sample_query_walk(query, rng)
                    if len(walk) >= 2:
                        self._descendants_at_depths(index, walk, acc, weight)
            acc[query] = 1.0
        return SimRankResult(
            query=query,
            scores=acc,
            num_walks=self.rg * self.rq,
            elapsed=timer.elapsed,
            method="tsf",
        )

    # ------------------------------------------------------------------ #
    # dynamic maintenance
    # ------------------------------------------------------------------ #

    def apply_updates(self, updates) -> None:
        """Incrementally patch the one-way graphs for a stream of updates.

        The protocol's capability-dispatched maintenance hook: the caller
        (e.g. a delta-maintained pool worker,
        :class:`repro.parallel.pool.ParallelSimRankService`) mutates the
        graph first, then notifies the index per update.
        """
        for update in updates:
            self.apply_update(update)

    def apply_update(self, update: EdgeUpdate) -> None:
        """Incrementally maintain the one-way graphs for one edge update.

        The *graph itself* must be updated by the caller (before or after —
        only the target node's in-degree is read).  Reverse adjacencies of
        touched one-way graphs are invalidated and rebuilt lazily.
        """
        target = update.target
        source = update.source
        graph = self._walk_graph()
        in_deg = graph.in_degree(target)
        if update.kind == "insert":
            if in_deg <= 0:
                return
            for index in range(self.rg):
                if self._rng.random() < 1.0 / in_deg:
                    self._one_way[index][target] = source
                    self._reverse[index] = None
        else:  # delete
            neighbors = graph.in_neighbors(target)
            for index in range(self.rg):
                if self._one_way[index][target] == source:
                    if len(neighbors) == 0:
                        self._one_way[index][target] = -1
                    else:
                        self._one_way[index][target] = int(
                            neighbors[int(self._rng.integers(len(neighbors)))]
                        )
                    self._reverse[index] = None

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def index_bytes(self, include_reverse: bool = True) -> int:
        """Bytes held by the index payload (Table 4's space column)."""
        total = sum(arr.nbytes for arr in self._one_way)
        if include_reverse:
            for cached in self._reverse:
                if cached is not None:
                    indptr, indices = cached
                    total += indptr.nbytes + indices.nbytes
        return total

    def materialize_reverse(self) -> None:
        """Force-build every reverse adjacency (for space accounting)."""
        for index in range(self.rg):
            self._reverse_adjacency(index)

    def __repr__(self) -> str:
        return (
            f"TSFIndex(n={self._csr.num_nodes}, rg={self.rg}, rq={self.rq}, "
            f"depth={self.depth}, c={self.c})"
        )
