"""Deterministic PROBE (Algorithm 2) with score pruning (Pruning rule 2).

Given a partial √c-walk ``(u_1, ..., u_i)``, PROBE computes, for every node
``v``, the *first-meeting probability* ``P(v, W(u, i))``: the probability that
an independent √c-walk from ``v`` reaches ``u_i`` at step ``i`` while avoiding
``u_{i-1}, ..., u_1`` at the corresponding earlier steps (Definition 4).

Two implementations of one quantity:

:func:`probe_deterministic`
    The probe every engine path runs: frontier propagation over dense
    numpy score vectors.  Small frontiers are expanded with per-node CSR
    slices; once the frontier's out-degree mass passes a threshold it
    switches to one sparse matvec per iteration
    (``next = sqrt(c) * B @ score`` with ``B[v, x] = 1/|I(v)|``), so each
    iteration costs at most O(m) in C speed.

:func:`probe_deterministic_python`
    Faithful transliteration of Algorithm 2 over hash maps.  Works on both
    :class:`~repro.graph.digraph.DiGraph` and CSR snapshots; the reference
    the tests hold :func:`probe_deterministic` to.

Both honour Pruning rule 2: after iteration ``j``, entries with
``score * sqrt(c)^(i - j - 1) <= eps_p`` are dropped before descending.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import QueryError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph


def _check_prefix(prefix: Sequence[int]) -> None:
    if len(prefix) < 2:
        raise QueryError(
            f"PROBE needs a partial walk of at least 2 nodes, got {len(prefix)}"
        )


def probe_deterministic_python(
    graph: "DiGraph | CSRGraph",
    prefix: Sequence[int],
    sqrt_c: float,
    eps_p: float = 0.0,
) -> dict[int, float]:
    """Algorithm 2 over hash maps.

    Returns ``{v: Score(v)}`` where ``Score(v) = P(v, prefix)``; nodes with
    zero (or pruned) scores are absent.
    """
    _check_prefix(prefix)
    i = len(prefix)
    scores: dict[int, float] = {prefix[-1]: 1.0}

    out_neighbors = graph.out_neighbors
    in_degree = graph.in_degree

    for j in range(i - 1):
        # Pruning rule 2: drop entries whose eventual contribution is <= eps_p.
        if eps_p > 0.0:
            remaining = sqrt_c ** (i - j - 1)
            scores = {v: s for v, s in scores.items() if s * remaining > eps_p}
            if not scores:
                return {}
        avoid = prefix[i - j - 2]  # u_{i-j-1} in the paper's 1-based indexing
        nxt: dict[int, float] = {}
        for x, score_x in scores.items():
            for v in out_neighbors(x):
                v = int(v)
                if v == avoid:
                    continue
                nxt[v] = nxt.get(v, 0.0) + score_x * sqrt_c / in_degree(v)
        scores = nxt
        if not scores:
            break
    return scores


def prune_frontier(
    score: np.ndarray,
    frontier: np.ndarray,
    remaining_factor: float,
    eps_p: float,
) -> np.ndarray:
    """Apply Pruning rule 2 in place; return the surviving frontier.

    ``remaining_factor`` is ``sqrt(c)^(i - j - 1)``, the maximum multiplier a
    frontier score can still gain before the probe finishes — entries whose
    eventual contribution ``score * remaining_factor`` is at most ``eps_p``
    are zeroed.
    """
    if eps_p <= 0.0 or len(frontier) == 0:
        return frontier
    keep = score[frontier] * remaining_factor > eps_p
    dropped = frontier[~keep]
    if len(dropped):
        score[dropped] = 0.0
    return frontier[keep]


def propagate_frontier(
    graph: CSRGraph,
    score: np.ndarray,
    frontier: np.ndarray,
    avoid: int,
    sqrt_c: float,
    edge_budget: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One Algorithm 2 iteration: ``H_j -> H_{j+1}``.

    Returns ``(next_score, next_frontier)``.  While the frontier's out-degree
    mass is below ``edge_budget`` the expansion walks CSR slices per node;
    beyond it one sparse matvec (``sqrt(c) * B @ score``) covers the whole
    iteration in C.
    """
    n = graph.num_nodes
    if len(frontier) == 0:
        return np.zeros(n, dtype=np.float64), frontier
    frontier_out_mass = int(graph.out_degrees[frontier].sum())
    if frontier_out_mass == 0:
        return np.zeros(n, dtype=np.float64), np.empty(0, dtype=np.int64)
    if frontier_out_mass <= edge_budget:
        nxt = np.zeros(n, dtype=np.float64)
        out_indptr = graph.out_indptr
        out_indices = graph.out_indices
        for x in frontier.tolist():
            targets = out_indices[out_indptr[x] : out_indptr[x + 1]]
            nxt[targets] += score[x]
        nxt *= sqrt_c * graph.inv_in_degrees
    else:
        nxt = sqrt_c * (graph.backward_operator @ score)
    nxt[avoid] = 0.0
    return nxt, np.nonzero(nxt)[0]


def frontier_edge_budget(graph: CSRGraph, dense_frontier_fraction: float = 0.25) -> float:
    """Sparse/dense crossover for :func:`propagate_frontier`."""
    return max(64.0, dense_frontier_fraction * max(graph.num_edges, 1))


def probe_deterministic(
    graph: CSRGraph,
    prefix: Sequence[int],
    sqrt_c: float,
    eps_p: float = 0.0,
    dense_frontier_fraction: float = 0.25,
) -> np.ndarray:
    """Algorithm 2 as dense-vector frontier propagation.

    Returns a dense ``float64`` array of length ``n`` holding
    ``P(v, prefix)`` for every node ``v``.
    """
    _check_prefix(prefix)
    n = graph.num_nodes
    i = len(prefix)
    score = np.zeros(n, dtype=np.float64)
    score[prefix[-1]] = 1.0
    frontier = np.array([prefix[-1]], dtype=np.int64)
    edge_budget = frontier_edge_budget(graph, dense_frontier_fraction)

    for j in range(i - 1):
        frontier = prune_frontier(score, frontier, sqrt_c ** (i - j - 1), eps_p)
        if len(frontier) == 0:
            return np.zeros(n, dtype=np.float64)
        avoid = prefix[i - j - 2]
        score, frontier = propagate_frontier(
            graph, score, frontier, avoid, sqrt_c, edge_budget
        )
        if len(frontier) == 0:
            break
    return score

