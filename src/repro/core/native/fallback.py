"""numpy/scipy primitives of the native engine's walk sampler and sweep.

:func:`repro.core.native.engine.probe_trie` drives these one trie level
at a time, sparse on deep levels and dense on wide ones (see
:mod:`.engine`).  Sparse levels hold the scores as a ``k x n`` CSR
(:class:`SparseRows`; row ``c`` is trie column ``c``'s score vector):
the sibling merge with seeds is one indicator product and the expansion
is ``merged @ op_t``, both compiled CSR x CSR products costing O(flops).
Dense levels hold ``(n, k)`` arrays: a flat ``bincount`` merges
siblings and one ``op @ merged`` product propagates.

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

from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from repro.core.native.rng import draw_keys, uniform_array

__all__ = [
    "SparseRows",
    "sample_walks",
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


def sample_walks(
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    in_degrees: np.ndarray,
    bases: np.ndarray,
    query: int,
    sqrt_c: float,
    max_len: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample all walks level-synchronously from counter-derived uniforms.

    Because every draw is keyed by ``(walk, step, lane)``, drawing a full
    vector per step (including lanes that already stopped) wastes a few
    mixes but changes no walk: walk ``i`` is the same node sequence however
    many walks are drawn beside it.
    """
    count = len(bases)
    nodes = np.full((count, max_len), -1, dtype=np.int32)
    nodes[:, 0] = query
    lengths = np.ones(count, dtype=np.int64)
    cur = np.full(count, query, dtype=np.int64)
    alive = np.ones(count, dtype=bool)
    for step in range(max_len - 1):
        u_stop = uniform_array(draw_keys(bases, step, 0))
        alive &= u_stop < sqrt_c
        deg = in_degrees[cur]
        alive &= deg > 0
        if not alive.any():
            break
        u_pick = uniform_array(draw_keys(bases, step, 1))
        idx = (u_pick * deg).astype(np.int64)
        np.minimum(idx, np.maximum(deg, 1) - 1, out=idx)
        # dead lanes still gather (their value is discarded below); clamp the
        # pointer so a dead lane parked at a source node can't index past m.
        ptr = np.minimum(in_indptr[cur] + idx, len(in_indices) - 1)
        nxt = in_indices[ptr].astype(np.int64)
        cur = np.where(alive, nxt, cur)
        nodes[alive, step + 1] = nxt[alive]
        lengths[alive] += 1
    return nodes, lengths


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
    acc: np.ndarray,
    op: sparse.csr_matrix,
    next_nodes: np.ndarray,
) -> np.ndarray:
    """Propagate an already-merged dense level and apply first-meeting zeros.

    Used on the sparse->dense switch level: merging is cheaper while the
    scores are still sparse, so only the propagation runs dense there.
    """
    out = op @ acc
    out[next_nodes, np.arange(acc.shape[1])] = 0.0
    return out


def dense_level(
    acc: np.ndarray,
    lev_nodes: np.ndarray,
    weights: np.ndarray,
    parents: np.ndarray,
    op: sparse.csr_matrix,
    next_nodes: np.ndarray,
    k_next: int,
) -> np.ndarray:
    """One dense level transition: seed, merge siblings, propagate, zero.

    The sibling merge is one flat ``np.bincount`` scatter-add: cell
    ``(row, j)`` of ``acc`` lands in bin ``row * k_next + parents[j]``.
    It reads ``acc`` once in C order and writes the merged matrix in the
    C order ``op @ merged`` wants, where the indicator product ``acc @ P``
    would copy a transpose on each side.
    """
    n, k = acc.shape
    acc[lev_nodes, np.arange(k)] += weights
    targets = (
        np.arange(n, dtype=np.int64)[:, None] * k_next + parents[None, :]
    ).ravel()
    merged = np.bincount(
        targets, weights=acc.ravel(), minlength=n * k_next
    ).reshape(n, k_next)
    return dense_propagate(merged, op, next_nodes)
