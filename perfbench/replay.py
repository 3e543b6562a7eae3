"""Replay native queries in-process, stage by stage, through public functions.

Worker processes cannot be traced from outside, so the engine's stage
split comes from re-running each query here with the functions the engine
itself calls: ``walk_bases`` and the backend's ``sample_walks`` (walks),
``WalkTrie.from_walk_arrays`` (trie) and ``probe_trie`` (sweep).  The
answer is rendered exactly as the server renders it, so every replay is
also checked byte for byte against what was served.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.api.registry import get_entry
from repro.core import native
from repro.core.results import SimRankResult
from repro.core.walk_trie import WalkTrie
from repro.graph.csr import as_csr
from repro.server.app import serialize_topk

from perfbench.workloads import METHOD, TOPK


@dataclass
class Stages:
    """One replayed query: seconds per stage and the sweep's shape."""

    walks: float
    trie: float
    sweep: float
    dense_levels: int
    sparse_levels: int
    trie_nodes: int


class _LevelCounter:
    """The backend namespace, counting which kind of level transition ran.

    A level that switches from sparse to dense propagates dense, so it
    counts as dense.
    """

    def __init__(self, impl) -> None:
        self._impl = impl
        self.dense = 0
        self.sparse = 0

    def __getattr__(self, name):
        return getattr(self._impl, name)

    def dense_level(self, *args):
        self.dense += 1
        return self._impl.dense_level(*args)

    def dense_propagate(self, *args):
        self.dense += 1
        return self._impl.dense_propagate(*args)

    def sparse_propagate_zero(self, *args):
        self.sparse += 1
        return self._impl.sparse_propagate_zero(*args)


class EngineReplay:
    """The served engine's configuration over one graph, run stage by stage."""

    def __init__(self, graph) -> None:
        self.csr = as_csr(graph)
        # the registry builds the served estimator; its config (walk count,
        # truncation, compensation) is what the workers run with
        self.config = get_entry(METHOD).build(self.csr).config
        started = time.perf_counter()
        self.ctx = native.make_context(self.csr, self.config.sqrt_c)
        self.context_seconds = time.perf_counter() - started
        self.impl = native.resolve_impl()
        self._kernel_trie = native.native_backend() == "numba"

    def run(self, query: int, seed: int) -> tuple[bytes, Stages]:
        """The served top-k body for ``query`` under ``seed``, with timings."""
        cfg, ctx = self.config, self.ctx
        t0 = time.perf_counter()
        bases = native.walk_bases(native.stream_base(seed, query),
                                  cfg.walk_count(self.csr.num_nodes))
        nodes, lengths = self.impl.sample_walks(
            ctx.in_indptr, ctx.in_indices, ctx.in_degrees,
            bases, query, cfg.sqrt_c, cfg.walk_truncation(),
        )
        t1 = time.perf_counter()
        if self._kernel_trie:
            trie = native.build_trie_kernel(nodes, lengths)
        else:
            trie = WalkTrie.from_walk_arrays(nodes, lengths)
        t2 = time.perf_counter()
        counter = _LevelCounter(self.impl)
        scores = native.probe_trie(ctx, trie, counter)
        t3 = time.perf_counter()
        scores /= trie.num_walks
        scores[query] = 1.0
        if cfg.compensate_truncation and cfg.prune:
            scores += cfg.budget.eps_t / 2.0
            scores[query] = 1.0
        result = SimRankResult(query, scores, trie.num_walks, method=METHOD)
        body = serialize_topk(result.topk(TOPK))
        return body, Stages(t1 - t0, t2 - t1, t3 - t2, counter.dense,
                            counter.sparse, trie.num_tree_nodes)
