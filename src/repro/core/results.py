"""Query result containers shared by ProbeSim and all baselines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QueryError


class SimRankResult:
    """Single-source SimRank estimates ``s~(u, v)`` for every node ``v``.

    ``scores[u]`` is fixed to 1.0 (``s(u, u) = 1`` by definition); all other
    entries are the algorithm's estimates.  The container is algorithm-
    agnostic: baselines return it too, so the evaluation stack treats every
    method uniformly.
    """

    __slots__ = ("query", "scores", "num_walks", "elapsed", "method")

    def __init__(
        self,
        query: int,
        scores: np.ndarray,
        num_walks: int = 0,
        elapsed: float = 0.0,
        method: str = "probesim",
    ) -> None:
        self.query = int(query)
        self.scores = np.asarray(scores, dtype=np.float64)
        if self.scores.ndim != 1:
            raise QueryError("scores must be a 1-D array over all nodes")
        self.num_walks = int(num_walks)
        self.elapsed = float(elapsed)
        self.method = method

    @property
    def num_nodes(self) -> int:
        return len(self.scores)

    def score(self, node: int) -> float:
        """Estimate for one node (1.0 for the query node itself)."""
        if not 0 <= node < len(self.scores):
            raise QueryError(f"node {node} out of range [0, {len(self.scores)})")
        return float(self.scores[node])

    def topk(self, k: int) -> "TopKResult":
        """Top-k nodes by estimated SimRank, excluding the query node.

        Ties are broken by ascending node id so results are deterministic.
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        n = len(self.scores)
        k = min(k, n - 1)
        keys = -self.scores
        keys[self.query] = np.inf  # the query sorts last
        if k == 0:
            order = np.empty(0, dtype=np.int64)
        else:
            # O(n): only keys at or below the k-th smallest can be in the
            # answer; a stable sort of those (ascending ids, ties at the
            # boundary included) is the full stable argsort's prefix
            kth = np.partition(keys, k - 1)[k - 1]
            candidates = np.flatnonzero(keys <= kth)
            order = candidates[np.argsort(keys[candidates], kind="stable")[:k]]
        return TopKResult(
            query=self.query,
            nodes=order.astype(np.int64),
            scores=self.scores[order],
            elapsed=self.elapsed,
            method=self.method,
        )

    def as_dict(self, threshold: float = 0.0) -> dict[int, float]:
        """``{v: estimate}`` for nodes with estimate > threshold (query excluded)."""
        out = {}
        for node in np.nonzero(self.scores > threshold)[0].tolist():
            if node != self.query:
                out[node] = float(self.scores[node])
        return out

    def __repr__(self) -> str:
        return (
            f"SimRankResult(query={self.query}, n={self.num_nodes}, "
            f"method={self.method!r}, num_walks={self.num_walks}, "
            f"elapsed={self.elapsed:.4f}s)"
        )


@dataclass(frozen=True)
class TopKResult:
    """Ordered top-k answer: ``nodes[i]`` has the i-th largest estimate."""

    query: int
    nodes: np.ndarray
    scores: np.ndarray
    elapsed: float = 0.0
    method: str = "probesim"

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.scores):
            raise QueryError("nodes and scores must have equal length")

    @property
    def k(self) -> int:
        return len(self.nodes)

    def as_pairs(self) -> list[tuple[int, float]]:
        """``[(node, estimate), ...]`` in rank order."""
        return [
            (int(node), float(score))
            for node, score in zip(self.nodes, self.scores)
        ]

    def node_set(self) -> set[int]:
        """The returned nodes as a set (for pool/precision computations)."""
        return {int(node) for node in self.nodes}

    def __iter__(self):
        return iter(self.as_pairs())

    def __repr__(self) -> str:
        return (
            f"TopKResult(query={self.query}, k={self.k}, method={self.method!r})"
        )
