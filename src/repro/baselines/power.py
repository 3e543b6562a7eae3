"""The Power Method for exact all-pairs SimRank (Jeh & Widom, Eq. 10).

Iterates ``S <- (c * P^T S P) ∨ I`` from ``S = I``, where ``P`` is the
column-stochastic in-edge transition matrix.  Nodes with no in-neighbours
have an all-zero column in ``P``, which correctly forces ``s(u, v) = 0``
against every other node.

The iteration converges geometrically: after ``t`` iterations every entry is
within ``c^t`` of the fixed point, so the paper's 55 iterations at ``c = 0.6``
give at most ``0.6^55 < 1e-12`` error — the ground-truth recipe reproduced by
:func:`repro.eval.ground_truth.compute_ground_truth`.

The matrices are ``n x n`` dense, so this is intentionally restricted to the
small-graph experiments (Figures 4-7), exactly as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.api.estimator import SimRankEstimator
from repro.core.results import SimRankResult
from repro.errors import ConfigurationError
from repro.graph.csr import as_csr
from repro.utils.timer import Timer
from repro.utils.validation import check_positive_int, check_probability, check_query_node


class PowerMethod(SimRankEstimator):
    """Exact SimRank via the all-pairs power iteration.

    >>> from repro.graph import DiGraph
    >>> g = DiGraph.from_edges([(0, 1), (2, 1), (1, 0), (2, 0)])
    >>> pm = PowerMethod(g, c=0.6)
    >>> S = pm.compute(iterations=30)
    >>> float(S[0, 0])
    1.0
    """

    #: refuse dense n^2 matrices beyond this size to protect callers from
    #: accidentally materialising tens of GB.
    MAX_DENSE_NODES = 20_000

    def __init__(self, graph, c: float = 0.6, iterations: int = 55) -> None:
        check_probability("c", c)
        check_positive_int("iterations", iterations)
        self._source_graph = graph
        self._csr = as_csr(graph)
        if self._csr.num_nodes > self.MAX_DENSE_NODES:
            raise ConfigurationError(
                f"PowerMethod needs an n x n dense matrix; n={self._csr.num_nodes} "
                f"exceeds the safety cap {self.MAX_DENSE_NODES}. Use ProbeSim or "
                "MonteCarlo on graphs this large (that is the paper's point)."
            )
        self.c = c
        self.iterations = iterations
        self._matrix: np.ndarray | None = None
        self._iterations_done = 0

    def sync(self) -> None:
        """Re-snapshot the source graph and drop the cached matrix.

        There is no incremental path: exact all-pairs SimRank must be
        recomputed from scratch, which is why the capability descriptor
        marks this method as impractical on dynamic graphs.
        """
        self._csr = as_csr(self._source_graph)
        self._matrix = None
        self._iterations_done = 0

    @property
    def num_iterations(self) -> int:
        """Iterations used by the last :meth:`compute` call."""
        return self._iterations_done

    def compute(self, iterations: int | None = None, tol: float = 0.0) -> np.ndarray:
        """Run the power iteration and return (and cache) the SimRank matrix.

        Parameters
        ----------
        iterations:
            Maximum iteration count (default: the constructor's ``iterations``;
            paper: 55 for <1e-12 error at c=0.6).
        tol:
            Early-exit when the max absolute entry change drops below this
            (0.0 disables early exit).
        """
        if iterations is None:
            iterations = self.iterations
        check_positive_int("iterations", iterations)
        n = self._csr.num_nodes
        transition = self._csr.transition  # P, column-stochastic (CSC)
        transition_t = transition.transpose().tocsr()  # P^T as CSR for matvecs

        current = np.eye(n, dtype=np.float64)
        for iteration in range(1, iterations + 1):
            # S' = c * P^T S P, computed as P^T (P^T S^T)^T to keep the
            # sparse operand on the left of both products.
            left = transition_t @ current  # P^T S
            nxt = (transition_t @ left.T).T  # (P^T (S^T P... )) == P^T S P
            nxt *= self.c
            np.fill_diagonal(nxt, 1.0)
            delta = float(np.max(np.abs(nxt - current))) if tol > 0.0 else None
            current = nxt
            if delta is not None and delta < tol:
                break
        self._matrix = current
        self._iterations_done = iteration
        return current

    def matrix(self) -> np.ndarray:
        """The cached SimRank matrix (computing it on first use)."""
        if self._matrix is None:
            self.compute()
        return self._matrix

    def single_source(self, query: int) -> SimRankResult:
        """Exact single-source answer, packaged like every other method's."""
        query = check_query_node(query, self._csr.num_nodes)
        timer = Timer()
        with timer:
            scores = self.matrix()[query].copy()
        return SimRankResult(
            query=query,
            scores=scores,
            num_walks=0,
            elapsed=timer.elapsed,
            method="power-method",
        )

    def pair(self, u: int, v: int) -> float:
        """Exact ``s(u, v)``."""
        n = self._csr.num_nodes
        return float(self.matrix()[check_query_node(u, n), check_query_node(v, n)])

    def __repr__(self) -> str:
        return f"PowerMethod(n={self._csr.num_nodes}, c={self.c})"
