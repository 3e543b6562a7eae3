"""numpy/scipy primitives of the native engine's walk sampler and sweep.

:func:`repro.core.native.engine.probe_trie` drives these one trie level
at a time.  Every primitive has a fixed floating-point accumulation order,
so a query's scores are a pure function of the graph and its walks —
never of batch composition or call history:

- ``np.bincount`` with weights adds every input element to its bin in
  input order (``np.add.reduceat`` does NOT qualify: its runs
  re-associate via pairwise summation once a run reaches 8 elements, so
  it is never used here);
- the sibling merge adds children into their parent in child order;
- ``scipy`` ``csr @ dense`` accumulates in row-entry-major order.

The level sweep is a sparse/dense *hybrid*: deep trie levels touch a few
hundred nodes (column supports are tiny — entry-level sparse propagation
wins), while shallow levels are dense ball unions (one compiled
``csr @ dense`` product wins).  The switch is a deterministic integer
cost model evaluated before each level (see :mod:`.engine`).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.native.rng import draw_keys, uniform_array

__all__ = [
    "sample_walks",
    "sparse_merge_seed",
    "sparse_propagate_zero",
    "sparse_to_dense",
    "dense_propagate",
    "dense_level",
]


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
    cur: tuple[np.ndarray, np.ndarray] | None,
    k: int,
    parents: np.ndarray,
    seed_keys: np.ndarray,
    seed_weights: np.ndarray,
    k_next: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge child columns into parents and fold in this level's seeds.

    ``cur`` is the level's scores in entry-keys form ``(keys, data)`` with
    ``key = row * k + col``, keys strictly increasing.  Relabelling each
    column to its parent keeps keys sorted (``parents`` is non-decreasing
    in child order), so sibling entries form adjacent runs that one
    ``bincount`` over run ids collapses — ``bincount`` adds in input
    order (``np.add.reduceat`` would not: it re-associates runs of 8+ via
    pairwise summation).  Seeds — unique, sorted ``row * k_next + parent``
    keys — are spliced in at the *end* of their run.
    """
    if cur is None or len(cur[0]) == 0:
        return seed_keys.copy(), seed_weights.copy()
    keys, data = cur
    mapped = (keys // k) * k_next + parents[keys % k]
    pos = np.searchsorted(mapped, seed_keys, side="right")
    mapped = np.insert(mapped, pos, seed_keys)
    data = np.insert(data, pos, seed_weights)
    new_run = np.r_[True, mapped[1:] != mapped[:-1]]
    run_ids = np.cumsum(new_run) - 1
    return mapped[new_run], np.bincount(run_ids, weights=data)


def sparse_propagate_zero(
    out_indptr: np.ndarray,
    out_indices: np.ndarray,
    target_weights: np.ndarray,
    merged: tuple[np.ndarray, np.ndarray],
    k_next: int,
    next_nodes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One sparse level transition in entry-keys form, then first-meeting zeros.

    The probe operator is applied by *expansion*: entry ``(r, c, v)``
    contributes ``target_weights[t] * v`` to ``(t, c)`` for every out-edge
    ``r -> t`` (``target_weights[t] = sqrt_c / |I(t)|``).  The expanded
    contributions are grouped by flat key via ``np.unique`` + ``bincount``,
    whose per-cell accumulation order is the expansion order.  The avoided
    entry of every column — ``(next_nodes[j], j)``, the trie node the
    column now represents — is then zeroed in place, keeping the explicit
    zero in the entry pattern.
    """
    keys, data = merged
    rows = keys // k_next
    cols = keys % k_next
    degrees = (out_indptr[rows + 1] - out_indptr[rows]).astype(np.int64)
    total = int(degrees.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    # expand each entry's out-edge range: starts[e] .. starts[e]+deg[e]
    starts = out_indptr[rows]
    offsets = np.repeat(
        np.cumsum(np.r_[np.int64(0), degrees[:-1]]) - starts, degrees
    )
    targets = out_indices[np.arange(total, dtype=np.int64) - offsets].astype(
        np.int64
    )
    exp_keys = targets * k_next + np.repeat(cols, degrees)
    exp_vals = np.repeat(data, degrees) * target_weights[targets]
    out_keys, inverse = np.unique(exp_keys, return_inverse=True)
    out_data = np.bincount(inverse, weights=exp_vals)
    zero_at = np.searchsorted(
        out_keys, next_nodes * k_next + np.arange(k_next, dtype=np.int64)
    )
    found = zero_at < len(out_keys)
    found[found] = (
        out_keys[zero_at[found]]
        == (next_nodes * k_next + np.arange(k_next, dtype=np.int64))[found]
    )
    out_data[zero_at[found]] = 0.0
    return out_keys, out_data


def sparse_to_dense(
    cur: tuple[np.ndarray, np.ndarray], n: int, k: int
) -> np.ndarray:
    """Densify entry-keys level scores (pure scatter, no sums)."""
    keys, data = cur
    acc = np.zeros((n, k), dtype=np.float64)
    acc[keys // k, keys % k] = data
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
    ``(row, j)`` of ``acc`` lands in flat bin ``row * k_next + parents[j]``,
    and ``bincount`` adds its inputs *in input order* — C order, i.e. per
    ``(row, parent)`` cell the additions land in child order — without the
    re-association ``np.add.reduceat`` would introduce on runs of 8+
    siblings.
    """
    n, k = acc.shape
    acc[lev_nodes, np.arange(k)] += weights
    targets = (
        np.arange(n, dtype=np.int64)[:, None] * k_next + parents[None, :]
    ).ravel()
    merged = np.bincount(
        targets, weights=acc.ravel(), minlength=n * k_next
    ).reshape(n, k_next)
    out = op @ merged
    out[next_nodes, np.arange(k_next)] = 0.0
    return out
