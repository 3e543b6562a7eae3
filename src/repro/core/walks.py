"""√c-walk sampling (Definition 3) and truncation (Pruning rule 1).

A √c-walk from ``u`` follows incoming edges and, *before every step*
(including the first), terminates with probability ``1 - sqrt(c)``.  A walk
also terminates when the current node has no in-neighbours.  The walk is the
node sequence ``(u_1 = u, u_2, ...)``; its expected length is
``1 / (1 - sqrt(c))`` nodes, and ``E[len^2]`` is constant, which is what makes
a single probed walk cost O(m) in expectation (§3.3).
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import as_generator


def truncation_length(eps_t: float, sqrt_c: float) -> int:
    """Pruning rule 1 cut-off: ``l_t = ceil(log eps_t / log sqrt(c))``.

    Beyond step ``l_t`` a meeting contributes at most ``eps_t`` to any
    SimRank value, so walks are truncated there.
    """
    if not 0.0 < eps_t < 1.0:
        raise ValueError(f"eps_t must lie in (0, 1), got {eps_t!r}")
    if not 0.0 < sqrt_c < 1.0:
        raise ValueError(f"sqrt_c must lie in (0, 1), got {sqrt_c!r}")
    return max(1, math.ceil(math.log(eps_t) / math.log(sqrt_c)))


def sample_sqrt_c_walk(
    graph,
    start: int,
    sqrt_c: float,
    rng: np.random.Generator | None = None,
    max_length: int | None = None,
) -> list[int]:
    """Sample one (possibly truncated) √c-walk from ``start``.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.digraph.DiGraph` or
        :class:`~repro.graph.csr.CSRGraph` (anything with
        ``random_in_neighbor``).
    start:
        The source node ``u`` (becomes ``walk[0]``).
    sqrt_c:
        Per-step continuation probability.
    max_length:
        Truncate the walk to at most this many *nodes* (Pruning rule 1's
        ``l_t``).  ``None`` means unbounded (the geometric stop still
        terminates the walk almost surely).

    Returns
    -------
    list[int]
        The node sequence, always starting with ``start`` and containing at
        least one node.
    """
    rng = as_generator(rng)
    walk = [start]
    current = start
    while max_length is None or len(walk) < max_length:
        if rng.random() >= sqrt_c:  # stop with probability 1 - sqrt(c)
            break
        nxt = graph.random_in_neighbor(current, rng)
        if nxt is None:  # dead end: no in-neighbours to continue through
            break
        walk.append(nxt)
        current = nxt
    return walk


def sample_walk_arrays(
    graph: CSRGraph,
    start: int,
    count: int,
    sqrt_c: float,
    rng: np.random.Generator | None = None,
    max_length: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` independent √c-walks into padded numpy arrays.

    Returns ``(nodes, lengths)`` where ``nodes`` is an int32 array of shape
    ``(count, max_observed_length)`` padded with ``-1`` past each walk's end,
    and ``lengths[i]`` is the node count of walk ``i`` (at least 1 — every
    walk contains ``start``).  Walk ``i`` is ``nodes[i, :lengths[i]]``.

    This is the canonical sampler: :func:`sample_walk_batch` draws through
    it, so a fixed seed yields bit-identical walk sets whether they are
    consumed as lists (the loop engine) or as arrays
    (:meth:`repro.core.walk_trie.WalkTrie.from_walk_arrays`).  The caller
    owns the generator — pass one ``Generator`` and thread it through the
    whole batch; re-seeding per walk would correlate walks and break the
    variance analysis behind Theorem 1's walk budget.
    """
    rng = as_generator(rng)
    if count <= 0:
        return (
            np.empty((0, 1), dtype=np.int32),
            np.empty(0, dtype=np.int64),
        )
    lengths = np.ones(count, dtype=np.int64)
    steps: list[tuple[np.ndarray, np.ndarray]] = []  # (walk ids, nodes) per level
    positions = np.full(count, start, dtype=np.int64)
    alive = np.ones(count, dtype=bool)
    length = 1
    while np.any(alive) and (max_length is None or length < max_length):
        alive_idx = np.nonzero(alive)[0]
        # geometric stop: each alive walk continues with probability sqrt(c)
        cont = rng.random(len(alive_idx)) < sqrt_c
        stopped = alive_idx[~cont]
        alive[stopped] = False
        moving = alive_idx[cont]
        if len(moving) == 0:
            break
        nxt = graph.sample_in_neighbors(positions[moving], rng)
        dead = nxt < 0
        alive[moving[dead]] = False
        moved = moving[~dead]
        if len(moved):
            targets = nxt[~dead]
            positions[moved] = targets
            lengths[moved] += 1
            steps.append((moved, targets))
        length += 1
    nodes = np.full((count, int(lengths.max())), -1, dtype=np.int32)
    nodes[:, 0] = start
    for level, (moved, targets) in enumerate(steps, start=1):
        nodes[moved, level] = targets
    return nodes, lengths


def sample_walk_batch(
    graph: CSRGraph,
    start: int,
    count: int,
    sqrt_c: float,
    rng: np.random.Generator | None = None,
    max_length: int | None = None,
) -> list[list[int]]:
    """Sample ``count`` independent √c-walks from ``start``.

    Semantically identical to calling :func:`sample_sqrt_c_walk` in a loop;
    on a :class:`CSRGraph` the stepping is vectorised across all still-alive
    walks (via :func:`sample_walk_arrays`), which is what makes the
    theoretical walk counts (thousands of walks) affordable in Python.
    """
    rng = as_generator(rng)
    if count <= 0:
        return []
    if not isinstance(graph, CSRGraph):
        # One shared generator threads through every walk: the fallback loop
        # must never re-seed per walk (walks would correlate).
        return [
            sample_sqrt_c_walk(graph, start, sqrt_c, rng, max_length)
            for _ in range(count)
        ]
    nodes, lengths = sample_walk_arrays(graph, start, count, sqrt_c, rng, max_length)
    return [nodes[i, : lengths[i]].tolist() for i in range(count)]


def expected_walk_length(sqrt_c: float) -> float:
    """``E[len] = 1 / (1 - sqrt(c))`` nodes (ignoring dead ends)."""
    return 1.0 / (1.0 - sqrt_c)
