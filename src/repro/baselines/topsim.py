"""The TopSim family (Lee et al., §2.3): TopSim-SM, Trun-TopSim-SM,
Prio-TopSim-SM.

TopSim-SM enumerates *all* reverse-walk prefixes of the query node up to ``T``
hops and treats their endpoints as meeting points; from each meeting point it
expands forward to score candidate nodes.  In √c-walk terms this computes

    s_T(u, v) = sum over prefixes p = (u_1 .. u_i), i <= T + 1 of
                 pi(p) * P(v, p)

where ``pi(p) = prod_j sqrt(c) / |I(u_j)|`` is the probability that a √c-walk
from ``u`` starts with ``p``, and ``P(v, p)`` is the first-meeting probability
computed by the deterministic PROBE.  This is the *exhaustive* counterpart of
ProbeSim's Monte Carlo outer loop: the same decomposition (Eq. 4), but with
the walk distribution enumerated exactly to depth ``T`` and the tail beyond
``T`` dropped.  Hence its two signature behaviours from the paper: cost
``O(d^T)`` prefixes (``O(d^{2T})`` work), and an error floor from the
truncated tail that no extra time can shrink.

The two heuristic variants trade accuracy for speed exactly as described:

- **Trun-TopSim-SM** skips expanding through high in-degree meeting points
  (in-degree > ``1/h``) and trims prefixes whose probability falls below
  ``eta``;
- **Prio-TopSim-SM** keeps only the ``H`` highest-probability prefixes per
  level.

Neither variant keeps the error guarantee — the paper's Figures 4-7 show the
resulting accuracy gap, and this implementation reproduces it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.api.estimator import SimRankEstimator
from repro.core.probe import probe_deterministic
from repro.core.results import SimRankResult
from repro.errors import ConfigurationError
from repro.graph.csr import as_csr
from repro.utils.timer import Timer
from repro.utils.validation import check_positive_int, check_probability, check_query_node

VARIANTS = ("full", "truncated", "prioritized")


class TopSim(SimRankEstimator):
    """Index-free truncated SimRank search (TopSim-SM and variants).

    Parameters
    ----------
    depth:
        ``T``, the random-walk depth (paper default 3).
    variant:
        ``"full"`` (TopSim-SM), ``"truncated"`` (Trun-TopSim-SM) or
        ``"prioritized"`` (Prio-TopSim-SM).
    degree_threshold:
        Trun- only: meeting points with in-degree above this (``1/h``, paper
        100) are not expanded.
    eta:
        Trun- only: prefixes with probability below this (paper 0.001) are
        trimmed.
    priority_width:
        Prio- only: ``H``, number of prefixes kept per level (paper 100).
    """

    def __init__(
        self,
        graph,
        c: float = 0.6,
        depth: int = 3,
        variant: str = "full",
        degree_threshold: int = 100,
        eta: float = 0.001,
        priority_width: int = 100,
    ) -> None:
        check_probability("c", c)
        check_positive_int("depth", depth)
        if variant not in VARIANTS:
            raise ConfigurationError(f"variant must be one of {VARIANTS}, got {variant!r}")
        check_positive_int("degree_threshold", degree_threshold)
        check_positive_int("priority_width", priority_width)
        if not 0.0 <= eta < 1.0:
            raise ConfigurationError(f"eta must lie in [0, 1), got {eta!r}")
        self._source_graph = graph
        self._csr = as_csr(graph)
        self.c = c
        self.sqrt_c = math.sqrt(c)
        self.depth = depth
        self.variant = variant
        self.degree_threshold = degree_threshold
        self.eta = eta
        self.priority_width = priority_width

    def sync(self) -> None:
        """Re-snapshot the source graph (index-free: the whole maintenance)."""
        self._csr = as_csr(self._source_graph)

    @property
    def method_name(self) -> str:
        return {
            "full": "topsim-sm",
            "truncated": "trun-topsim-sm",
            "prioritized": "prio-topsim-sm",
        }[self.variant]

    # ------------------------------------------------------------------ #
    # prefix enumeration
    # ------------------------------------------------------------------ #

    def _expand_level(
        self, level: list[tuple[tuple[int, ...], float]]
    ) -> list[tuple[tuple[int, ...], float]]:
        """Extend every prefix in ``level`` by one reverse step."""
        graph = self._csr
        nxt: list[tuple[tuple[int, ...], float]] = []
        for prefix, prob in level:
            tail = prefix[-1]
            in_deg = graph.in_degree(tail)
            if in_deg == 0:
                continue
            if self.variant == "truncated" and in_deg > self.degree_threshold:
                continue  # omit high-degree meeting points
            step_prob = prob * self.sqrt_c / in_deg
            if self.variant == "truncated" and step_prob < self.eta:
                continue  # trim improbable walks
            for neighbor in graph.in_neighbors(tail).tolist():
                nxt.append((prefix + (neighbor,), step_prob))
        if self.variant == "prioritized" and len(nxt) > self.priority_width:
            nxt.sort(key=lambda item: item[1], reverse=True)
            nxt = nxt[: self.priority_width]
        return nxt

    def enumerate_prefixes(self, query: int) -> list[tuple[tuple[int, ...], float]]:
        """All (variant-filtered) reverse prefixes of length 2..depth+1 with
        their √c-walk probabilities."""
        level: list[tuple[tuple[int, ...], float]] = [((query,), 1.0)]
        collected: list[tuple[tuple[int, ...], float]] = []
        for _ in range(self.depth):
            level = self._expand_level(level)
            if not level:
                break
            collected.extend(level)
        return collected

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def single_source(self, query: int) -> SimRankResult:
        """Deterministic truncated single-source estimate ``s_T(query, .)``."""
        query = check_query_node(query, self._csr.num_nodes)
        timer = Timer()
        with timer:
            scores = np.zeros(self._csr.num_nodes, dtype=np.float64)
            for prefix, prob in self.enumerate_prefixes(query):
                scores += prob * probe_deterministic(
                    self._csr, prefix, self.sqrt_c
                )
            scores[query] = 1.0
        return SimRankResult(
            query=query,
            scores=scores,
            num_walks=0,
            elapsed=timer.elapsed,
            method=self.method_name,
        )

    def __repr__(self) -> str:
        return (
            f"TopSim(n={self._csr.num_nodes}, variant={self.variant!r}, "
            f"T={self.depth}, c={self.c})"
        )
