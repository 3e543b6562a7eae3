"""√c-walk sampling (Definition 3) and truncation (Pruning rule 1).

A √c-walk from ``u`` follows incoming edges and, *before every step*
(including the first), terminates with probability ``1 - sqrt(c)``.  A walk
also terminates when the current node has no in-neighbours.  The walk is the
node sequence ``(u_1 = u, u_2, ...)``; its expected length is
``1 / (1 - sqrt(c))`` nodes, and ``E[len^2]`` is constant, which is what makes
a single probed walk cost O(m) in expectation (§3.3).

:func:`sample_sqrt_c_walk` is the scalar reference for Definition 3.
ProbeSim draws its walk batches elsewhere, through the counter-RNG sampler
of :mod:`repro.core.native.fallback`, which every strategy shares.
"""

from __future__ import annotations

import math

import numpy as np

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


def expected_walk_length(sqrt_c: float) -> float:
    """``E[len] = 1 / (1 - sqrt(c))`` nodes (ignoring dead ends)."""
    return 1.0 / (1.0 - sqrt_c)
