"""numpy/scipy primitives of the native engine's walk sampler and sweep.

The sampler advances only the live walks, one step for all of them at a
time, and :func:`sample_trie_levels` turns each step straight into that
depth's trie level: walks and trie come out of one pass, with no padded
walk matrix.  :func:`sample_walks` consumes the same steps into the
padded matrix for callers that want the walks themselves.

:func:`repro.core.native.engine.probe_trie` drives the rest one trie level
at a time, sparse on deep levels and dense on wide ones (see
:mod:`.engine`).  Sparse levels hold the scores as a ``k x n`` CSR
(:class:`SparseRows`; row ``c`` is trie column ``c``'s score vector):
the sibling merge with seeds is one indicator product and the expansion
is ``merged @ op_t``, both compiled CSR x CSR products costing O(flops).
The switch level's merged rows are held unpropagated; each dense level
then merges its held columns into parents with one flat ``bincount``,
propagates with one ``op @ merged`` product at the parent width, and
corrects each prefix's first-meeting cell (:func:`dense_level`).  The
held matrix is ``(n, k)`` after the first dense level, so no dense
matrix is ever as wide as the switch level.

Every answer is a pure function of (graph, walks): each product's
operands come from the graph and the trie alone, and a compiled
product's accumulation order is fixed by its operands' entry order.

Sparse products call scipy's CSR x CSR kernel
(``scipy.sparse._sparsetools.csr_matmat``) on the index arrays directly:
``csr_matrix.__matmul__`` runs the same kernel behind tens of
microseconds of checks and object construction per product, more than
a whole deep level costs.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from repro.core.native.rng import draw_keys, uniform_array
from repro.core.walk_trie import TrieLevel

__all__ = [
    "SparseRows",
    "sample_walks",
    "sample_trie_levels",
    "sparse_merge_seed",
    "sparse_propagate_zero",
    "sparse_to_dense",
    "dense_propagate",
    "dense_level",
]


class SparseRows(NamedTuple):
    """A CSR matrix as its three arrays, all indices ``int64``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def csr_product(a: SparseRows, b: SparseRows, n_cols: int) -> SparseRows:
    """``a @ b`` through scipy's compiled CSR x CSR kernel.

    Row ``i`` accumulates ``a[i, j] * b[j, :]`` in ``a``'s entry order;
    exact zeros are dropped and column indices come out unsorted.  The
    output is sized by the multiply-add count, which bounds its entries:
    counting it is one gather, where scipy's sizing pass walks every
    multiply-add a second time.
    """
    rows = len(a.indptr) - 1
    flops = int((b.indptr[a.indices + 1] - b.indptr[a.indices]).sum())
    cap = min(flops, rows * n_cols)
    indptr = np.empty(rows + 1, dtype=np.int64)
    indices = np.empty(cap, dtype=np.int64)
    data = np.empty(cap, dtype=np.float64)
    _sparsetools.csr_matmat(
        rows, n_cols, a.indptr, a.indices, a.data,
        b.indptr, b.indices, b.data, indptr, indices, data,
    )
    nnz = indptr[-1]
    return SparseRows(indptr, indices[:nnz], data[:nnz])


def _live_steps(
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    in_degrees: np.ndarray,
    bases: np.ndarray,
    query: int,
    sqrt_c: float,
    max_len: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Step every walk from ``query``, carrying only the live lanes.

    Each step draws the stop keys of the live lanes, drops the lanes that
    stop or sit on an in-degree-0 node, then draws the pick keys of the
    survivors and gathers their next nodes.  Yields ``(keep, nxt)`` per
    step: ``keep`` indexes the lanes live before the step that survive
    it (in lane order) and ``nxt`` holds their new nodes.  Because every
    draw is keyed by ``(walk, step, lane)``, dropping a finished lane
    changes no surviving walk.
    """
    cur = np.full(len(bases), query, dtype=np.int64)
    for step in range(max_len - 1):
        u_stop = uniform_array(draw_keys(bases, step, 0))
        deg = in_degrees[cur]
        keep = np.flatnonzero((u_stop < sqrt_c) & (deg > 0))
        if len(keep) == 0:
            return
        bases, cur, deg = bases[keep], cur[keep], deg[keep]
        idx = (uniform_array(draw_keys(bases, step, 1)) * deg).astype(np.int64)
        np.minimum(idx, deg - 1, out=idx)
        cur = in_indices[in_indptr[cur] + idx].astype(np.int64)
        yield keep, cur


def sample_walks(
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    in_degrees: np.ndarray,
    bases: np.ndarray,
    query: int,
    sqrt_c: float,
    max_len: int,
) -> tuple[np.ndarray, np.ndarray]:
    """All walks as a padded ``(count, longest)`` matrix plus their lengths.

    Row ``i`` is walk ``i`` padded with ``-1``; the input of
    :meth:`~repro.core.walk_trie.WalkTrie.from_walk_arrays`.  The matrix is
    as wide as the longest walk drawn, not ``max_len``, which may be a
    loose safety cap.  Trie-building callers step straight into levels
    instead (:func:`sample_trie_levels`); this consumer of the same steps
    serves callers that want the walks themselves.
    """
    count = len(bases)
    lengths = np.ones(count, dtype=np.int64)
    lanes = np.arange(count)
    steps = []
    for keep, nxt in _live_steps(
        in_indptr, in_indices, in_degrees, bases, query, sqrt_c, max_len
    ):
        lanes = lanes[keep]
        lengths[lanes] += 1
        steps.append((lanes, nxt))
    nodes = np.full((count, len(steps) + 1), -1, dtype=np.int32)
    nodes[:, 0] = query
    for depth, (lanes, nxt) in enumerate(steps, start=1):
        nodes[lanes, depth] = nxt
    return nodes, lengths


def sample_trie_levels(
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    in_degrees: np.ndarray,
    bases: np.ndarray,
    query: int,
    sqrt_c: float,
    max_len: int,
) -> list[TrieLevel]:
    """The walks' prefix-trie levels, built while the walks step.

    Each live lane is keyed ``parent * (n + 1) + node`` by the trie index
    of its prefix so far; one ``np.unique`` per step gives that depth's
    distinct prefixes sorted by ``(parent, node)`` with their walk counts,
    and its inverse is every surviving lane's parent for the next step.
    Level for level equal to ``WalkTrie.from_walk_arrays(*sample_walks(...))``
    without the padded matrix or a second pass over it.
    """
    stride = len(in_degrees) + 1
    parent = np.zeros(len(bases), dtype=np.int64)  # every lane at the root
    levels = []
    for keep, nxt in _live_steps(
        in_indptr, in_indices, in_degrees, bases, query, sqrt_c, max_len
    ):
        distinct, parent, counts = np.unique(
            parent[keep] * stride + nxt, return_inverse=True, return_counts=True
        )
        levels.append(
            TrieLevel(
                nodes=distinct % stride,
                parents=distinct // stride,
                weights=counts.astype(np.int64),
            )
        )
    return levels


def sparse_merge_seed(
    cur: SparseRows | None,
    child_ptr: np.ndarray,
    nodes: np.ndarray,
    weights: np.ndarray,
    n: int,
) -> SparseRows:
    """Seed every column and merge children into parents: ``P^T @ (S + E)``.

    ``cur`` (``S``) holds the level's ``k`` score rows and the seeds
    ``E`` put ``weights[j]`` at ``(j, nodes[j])``; stacked into one
    operand, ``[P^T | P^T]`` sums both in one product.  Parent ``p``'s
    children are rows ``child_ptr[p]:child_ptr[p + 1]``.  Without scores
    the seeds are already merged: one entry per distinct (parent, node).
    """
    if cur is None:
        return SparseRows(child_ptr, nodes, weights)
    k = len(nodes)
    stacked = SparseRows(
        np.concatenate([cur.indptr, cur.indptr[-1] + np.arange(1, k + 1)]),
        np.concatenate([cur.indices, nodes]),
        np.concatenate([cur.data, weights]),
    )
    cols = np.arange(k, dtype=np.int64)
    pick = SparseRows(
        2 * child_ptr,
        np.column_stack([cols, cols + k]).ravel(),
        np.ones(2 * k, dtype=np.float64),
    )
    return csr_product(pick, stacked, n)


def sparse_propagate_zero(
    op_t: SparseRows,
    merged: SparseRows,
    next_nodes: np.ndarray,
    n: int,
) -> SparseRows:
    """One sparse level transition ``merged @ op_t``, then first-meeting zeros.

    Row ``x`` of ``op_t`` holds ``sqrt_c / |I(t)|`` at every out-neighbour
    ``t`` of ``x``.  The avoided entry of row ``j`` (column
    ``next_nodes[j]``, the trie node the row now represents) is zeroed by
    one masked write, keeping the explicit zero in the pattern.
    """
    out = csr_product(merged, op_t, n)
    first = np.repeat(next_nodes, np.diff(out.indptr))
    out.data[out.indices == first] = 0.0
    return out


def sparse_to_dense(merged: SparseRows, n: int) -> np.ndarray:
    """Densify sparse level scores to ``(n, k)`` (pure scatter, no sums)."""
    k = len(merged.indptr) - 1
    acc = np.zeros((n, k), dtype=np.float64)
    acc[merged.indices, np.repeat(np.arange(k), np.diff(merged.indptr))] = (
        merged.data
    )
    return acc


def dense_propagate(
    held: np.ndarray,
    op: sparse.csr_matrix,
    next_nodes: np.ndarray,
) -> np.ndarray:
    """Propagate a merged dense level and apply first-meeting zeros.

    The sweep's last step: the root's held column (width 1) becomes the
    scores, with the root's own entry zeroed.
    """
    out = op @ held
    out[next_nodes, np.arange(held.shape[1])] = 0.0
    return out


def _op_rows(op: sparse.csr_matrix, nodes: np.ndarray) -> SparseRows:
    """Rows ``nodes`` of ``op`` (the in-neighbour weights of each node)."""
    starts = op.indptr[nodes].astype(np.int64)
    lens = op.indptr[nodes + 1] - starts
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    pos = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lens)
    return SparseRows(indptr, op.indices[pos].astype(np.int64), op.data[pos])


def _row_dots(a: SparseRows, b: SparseRows, n_cols: int) -> np.ndarray:
    """``(a * b).sum(axis=1)`` through scipy's compiled CSR elementwise kernel.

    Takes rows with unsorted column indices (no duplicates); each row's
    sum runs in the kernel's output order, fixed by the operands.
    """
    rows = len(a.indptr) - 1
    cap = len(a.indices) + len(b.indices)
    indptr = np.empty(rows + 1, dtype=np.int64)
    indices = np.empty(cap, dtype=np.int64)
    data = np.empty(cap, dtype=np.float64)
    _sparsetools.csr_elmul_csr(
        rows, n_cols, a.indptr, a.indices, a.data,
        b.indptr, b.indices, b.data, indptr, indices, data,
    )
    nnz = indptr[-1]
    return np.bincount(
        np.repeat(np.arange(rows), np.diff(indptr)),
        weights=data[:nnz], minlength=rows,
    )


def dense_level(
    held: SparseRows | np.ndarray,
    lev_nodes: np.ndarray,
    weights: np.ndarray,
    parents: np.ndarray,
    op: sparse.csr_matrix,
    k_next: int,
) -> np.ndarray:
    """One dense level: merge into parents, propagate at their width, correct.

    ``held`` is the level's merged scores ``Q`` before propagation, one
    column per trie node ``j`` of the level: ``k`` :class:`SparseRows` on
    the first level after the switch, ``(n, k)`` after that.  The level's
    scores are ``op @ Q`` with cell ``(u_j, j)`` (``u_j = lev_nodes[j]``)
    first-meeting zeroed and then seeded with ``w_j``.  Merged into the
    parents by the indicator ``P`` (``P[j, parents[j]] = 1``) that is
    ``op @ (Q P) + D P`` with ``D[u_j, j] = w_j - c_j`` and
    ``c_j = (op @ Q)[u_j, j]``, so merging first runs the one
    ``csr @ dense`` product at the parent width ``k_next``, never at
    ``k``.  ``c`` pairs row ``u_j`` of ``op`` with column ``j`` of ``Q``
    (``sum_j |I(u_j)|`` multiply-adds, no ``n x k`` temporary), and ``D P``
    is one scatter: trie nodes are distinct ``(parent, node)`` pairs.
    Every corrected cell holds ``w_j >= 1`` and every other cell a sum of
    non-negative terms, so the exact zeros are those of propagating each
    column and scores move by round-off only.

    The sibling merge is one flat ``np.bincount`` scatter-add: cell
    ``(x, j)`` of ``Q`` lands in bin ``x * k_next + parents[j]``, written
    in the C order ``op @ merged`` wants.  Returns the parent level's held
    ``(n, k_next)`` matrix.
    """
    k = len(lev_nodes)
    rows = _op_rows(op, lev_nodes)
    if isinstance(held, SparseRows):
        n = op.shape[0]
        cells = held.indices * k_next + np.repeat(parents, np.diff(held.indptr))
        values = held.data
        first = _row_dots(held, rows, n)
    else:
        n = held.shape[0]
        cells = (
            np.arange(n, dtype=np.int64)[:, None] * k_next + parents[None, :]
        ).ravel()
        values = held.ravel()
        cols = np.repeat(np.arange(k), np.diff(rows.indptr))
        first = np.bincount(
            cols, weights=values[rows.indices * k + cols] * rows.data,
            minlength=k,
        )
    merged = np.bincount(cells, weights=values, minlength=n * k_next)
    out = op @ merged.reshape(n, k_next)
    out[lev_nodes, parents] += weights - first
    return out
