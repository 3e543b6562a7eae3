"""Native-engine orchestration: context, one-pass sampling, hybrid sweep.

The per-level control flow (which levels run sparse, which dense) lives
here; the per-level arithmetic lives in :mod:`.fallback`, passed in as
``impl``.  The switch is a deterministic integer cost model over
``(graph, trie)``, so one trie always takes the same step sequence and a
query's scores are a pure function of its walks; either choice gives the
same scores up to float round-off.

Cost model: a sparse level costs roughly its expansion flops (the
out-degree sum over its entries) plus a pass over the entries; a dense
one costs ``m * k_next`` multiply-adds in one ``csr @ dense`` product.
Deep levels (a few hundred touched nodes) run sparse, shallow ones (ball
unions) dense.  The level that switches is not propagated at all: its
merged rows are held, and every dense level merges the held columns into
its parents before its one product (:func:`.fallback.dense_level`), so
the product a switch brings on runs at the next level's parent width and
the sweep ends in one width-1 product at the root.  ``m * k_next`` thus
overstates the dense cost of switching; the weights were re-checked by
timing the sweep over every wiki-vote and hepph small query (2-core VM)
with both scaled: x0.5 was within noise of x1 on both, x2 (and x0.25)
was 1.3-1.4x slower on wiki-vote, and hepph (~0.1 ms a query) stayed
within its noise at every scale, so they stay as tuned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.native.fallback import SparseRows
from repro.core.native.rng import walk_bases
from repro.core.walk_trie import WalkTrie

#: weights of the sparse-cost proxy (flops, entry passes) against the dense
#: cost ``m * k_next``; tuned on wiki-vote/hepph and bench_native_engine.
SWITCH_FLOP_WEIGHT = 8
SWITCH_PASS_WEIGHT = 16


@dataclass
class NativeContext:
    """Per-(graph, sqrt_c) state shared by every native query.

    ``op`` is the probe operator ``sqrt_c * B`` (``B[v, x] = 1/|I(v)|``
    for every edge ``x -> v``) materialized once as a CSR whose rows are
    the in-adjacency slices; dense levels propagate with ``op @ merged``.
    ``op_t`` is its transpose, whose rows are the out-adjacency slices;
    sparse levels expand with ``merged @ op_t``.
    """

    n: int
    m: int
    in_indptr: np.ndarray
    in_indices: np.ndarray
    in_degrees: np.ndarray
    out_degrees: np.ndarray
    op: sparse.csr_matrix
    op_t: SparseRows


def make_context(csr, sqrt_c: float) -> NativeContext:
    """Build the native query context for one CSR snapshot."""
    n = csr.num_nodes
    target_weights = sqrt_c * csr.inv_in_degrees
    op = sparse.csr_matrix(
        (
            np.repeat(target_weights, csr.in_degrees),
            csr.in_indices.astype(np.int64),
            csr.in_indptr.astype(np.int64),
        ),
        shape=(n, n),
    )
    return NativeContext(
        n=n,
        m=csr.num_edges,
        in_indptr=csr.in_indptr,
        in_indices=csr.in_indices,
        in_degrees=csr.in_degrees,
        out_degrees=csr.out_degrees,
        op=op,
        op_t=SparseRows(
            csr.out_indptr.astype(np.int64),
            csr.out_indices.astype(np.int64),
            target_weights[csr.out_indices],
        ),
    )


def context_for(csr, sqrt_c: float) -> NativeContext:
    """:func:`make_context`, cached on the CSR snapshot (keyed by ``sqrt_c``).

    CSR snapshots are immutable, so a context built once is valid for the
    snapshot's whole lifetime — mirroring how the snapshot caches its
    ``backward_operator``.  Caching here means short-lived engines (one per
    benchmark round, one per service worker epoch) share the operator build.
    The context keeps no reference back to the snapshot, so both are freed
    by refcount when a worker drops an epoch, not at the next full cycle
    collection.
    """
    cache = getattr(csr, "_native_contexts", None)
    if cache is None:
        cache = {}
        csr._native_contexts = cache
    ctx = cache.get(sqrt_c)
    if ctx is None:
        ctx = cache[sqrt_c] = make_context(csr, sqrt_c)
    return ctx


def probe_trie(ctx: NativeContext, trie: WalkTrie, impl) -> np.ndarray:
    """Run the hybrid level sweep for one trie; returns unnormalized scores."""
    n = ctx.n
    if trie.max_depth < 2:
        return np.zeros(n, dtype=np.float64)
    levels = trie.levels
    cur = None  # sparse phase state: k x n SparseRows, row c = column c
    held = None  # dense phase state: merged, unpropagated (see dense_level)
    for depth in range(trie.max_depth, 1, -1):
        level = levels[depth - 2]
        parents = level.parents
        if depth == 2:
            k_next = 1
            next_nodes = np.array([trie.root], dtype=np.int64)
        else:
            nxt = levels[depth - 3]
            k_next = len(nxt)
            next_nodes = nxt.nodes
        weights = level.weights.astype(np.float64)
        if held is not None:
            held = impl.dense_level(
                held, level.nodes, weights, parents, ctx.op, k_next
            )
            continue
        # the level's entries: its scores so far plus one seed a column
        flops = int(ctx.out_degrees[level.nodes].sum())
        passes = len(level)
        if cur is not None:
            flops += int(ctx.out_degrees[cur.indices].sum())
            passes += len(cur.indices)
        # trie levels are sorted by parent: children of p are a row range
        child_ptr = np.searchsorted(parents, np.arange(k_next + 1))
        merged = impl.sparse_merge_seed(cur, child_ptr, level.nodes, weights, n)
        if (
            SWITCH_FLOP_WEIGHT * flops + SWITCH_PASS_WEIGHT * passes
            >= ctx.m * k_next
        ):
            # hold the merged rows unpropagated: the next level merges
            # them into its parents before the first dense product.
            held = merged
            cur = None
        else:
            cur = impl.sparse_propagate_zero(ctx.op_t, merged, next_nodes, n)
    if held is not None:
        if isinstance(held, SparseRows):  # the switch was the root's level
            held = impl.sparse_to_dense(held, n)
        root = np.array([trie.root], dtype=np.int64)
        scores = impl.dense_propagate(held, ctx.op, root)
        return np.ascontiguousarray(scores[:, 0])
    scores = np.zeros(n, dtype=np.float64)
    scores[cur.indices] = cur.data  # one row left: the root's column
    return scores


def run_query(
    ctx: NativeContext,
    query: int,
    num_walks: int,
    sqrt_c: float,
    max_len: int,
    base: int,
    impl,
) -> tuple[np.ndarray, WalkTrie, float, float]:
    """Walks and trie levels in one pass, then the sweep, for one query.

    Returns ``(scores, trie, sample_seconds, sweep_seconds)``: the
    unnormalized scores, the walk trie they were probed from, and the
    wall-clock seconds of the two stages.
    """
    started = time.perf_counter()
    levels = impl.sample_trie_levels(
        ctx.in_indptr, ctx.in_indices, ctx.in_degrees,
        walk_bases(base, num_walks), query, sqrt_c, max_len,
    )
    trie = WalkTrie(query, num_walks, levels)
    sampled = time.perf_counter()
    scores = probe_trie(ctx, trie, impl)
    return scores, trie, sampled - started, time.perf_counter() - sampled
