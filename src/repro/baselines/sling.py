"""SLING — the state-of-the-art *static* index the paper argues against (§1).

Tian & Xiao (SIGMOD 2016) decompose SimRank by the walks' **last meeting**:

    s(u, v) = sum_t sum_w  h_t(u, w) * h_t(v, w) * d(w)

where ``h_t(u, w)`` is the probability that a √c-walk from ``u`` occupies
``w`` at step ``t`` (so ``H_t = (sqrt(c) * B)^t`` with ``B`` the in-edge
transition operator), and ``d(w)`` is the probability that two independent
√c-walks from ``w`` never meet again at a later step.  The identity is exact
(verified to machine precision in the tests).

The index stores the sparsified hitting operators ``H_0..H_T`` plus the
``d`` vector; a single-source query is then ``T`` sparse matvecs.  This
reproduces SLING's trade-off profile from the paper's introduction:

- **queries are very fast** (the paper credits SLING with the best static
  query times),
- **preprocessing is heavy** — building every hitting operator is
  Θ(T · nnz) work and the index is far larger than the graph
  (``O(n / eps)`` in the original),
- **updates are unsupported**: any edge change invalidates hitting
  probabilities globally, so the index must be rebuilt from scratch —
  exactly the §1 motivation for index-free ProbeSim.

Two estimators for ``d``:

``exact``
    Solve the diagonal constraint ``s(w, w) = 1``:
    ``sum_t sum_x h_t(w, x)^2 * d(x) = 1`` is a linear system ``A d = 1``
    with ``A[w, x] = sum_t H_t[w, x]^2``.  Exact but needs a dense solve —
    used on small graphs (this replaces the original's analytic machinery
    and is *more* accurate at reproduction scale).
``monte_carlo``
    The original's approach: sample walk pairs from each node and count
    re-meetings.  Vectorised across all nodes simultaneously.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from repro.api.estimator import SimRankEstimator
from repro.core.results import SimRankResult
from repro.errors import ConfigurationError
from repro.graph.csr import as_csr
from repro.utils.rng import as_generator
from repro.utils.timer import Timer
from repro.utils.validation import check_positive_int, check_probability, check_query_node

D_MODES = ("exact", "monte_carlo")


class SLINGIndex(SimRankEstimator):
    """Last-meeting-decomposition index for single-source SimRank.

    Parameters
    ----------
    theta:
        Sparsification threshold for the hitting operators: entries below
        ``theta`` are dropped after each propagation step (the index-size /
        accuracy knob; the original's ``eps / 2`` push threshold).
    depth:
        Number of hitting operators kept.  ``None`` derives it from
        ``theta``: beyond ``t = log(theta) / log(sqrt(c))`` every entry of
        ``H_t`` is below the threshold anyway.
    d_mode / d_samples:
        How to estimate the never-meet-again probabilities (see module
        docstring).
    """

    #: dense d-solve needs an n x n system; refuse beyond this.
    MAX_EXACT_NODES = 5_000

    def __init__(
        self,
        graph,
        c: float = 0.6,
        theta: float = 1e-4,
        depth: int | None = None,
        d_mode: str = "exact",
        d_samples: int = 2_000,
        seed=None,
    ) -> None:
        check_probability("c", c)
        if not 0.0 <= theta < 1.0:
            raise ConfigurationError(f"theta must lie in [0, 1), got {theta!r}")
        if d_mode not in D_MODES:
            raise ConfigurationError(f"d_mode must be one of {D_MODES}, got {d_mode!r}")
        check_positive_int("d_samples", d_samples)
        if depth is not None:
            check_positive_int("depth", depth)

        self._source_graph = graph
        self._csr = as_csr(graph)
        self.c = c
        self.sqrt_c = math.sqrt(c)
        self.theta = theta
        self.d_mode = d_mode
        self.d_samples = d_samples
        self._rng = as_generator(seed)
        if depth is None:
            floor = theta if theta > 0 else 1e-8
            depth = max(1, math.ceil(math.log(floor) / math.log(self.sqrt_c)))
        self.depth = depth
        if d_mode == "exact" and self._csr.num_nodes > self.MAX_EXACT_NODES:
            raise ConfigurationError(
                f"exact d-solve needs a dense {self._csr.num_nodes}^2 system; "
                f"use d_mode='monte_carlo' beyond {self.MAX_EXACT_NODES} nodes"
            )

        self._hitting: list[sparse.csr_matrix] = []
        self._d: np.ndarray | None = None
        self._build_time = 0.0
        self._build()

    # ------------------------------------------------------------------ #
    # preprocessing
    # ------------------------------------------------------------------ #

    def _build(self) -> None:
        timer = Timer()
        with timer:
            self._build_hitting_operators()
            if self.d_mode == "exact":
                self._d = self._solve_d_exact()
            else:
                self._d = self._estimate_d_monte_carlo()
        self._build_time = timer.elapsed

    def _build_hitting_operators(self) -> None:
        n = self._csr.num_nodes
        step = (self.sqrt_c * self._csr.backward_operator).tocsr()
        current = sparse.identity(n, dtype=np.float64, format="csr")
        self._hitting = [current]
        for _ in range(self.depth):
            current = (current @ step).tocsr()
            if self.theta > 0.0:
                current.data[current.data < self.theta] = 0.0
                current.eliminate_zeros()
            if current.nnz == 0:
                break
            self._hitting.append(current)

    def _solve_d_exact(self) -> np.ndarray:
        n = self._csr.num_nodes
        accumulated = np.zeros((n, n), dtype=np.float64)
        for operator in self._hitting:
            squared = operator.copy()
            squared.data = squared.data**2
            accumulated += squared.toarray()
        return np.linalg.solve(accumulated, np.ones(n))

    def _estimate_d_monte_carlo(self) -> np.ndarray:
        """``1 - Pr[two walks from w meet again at step >= 1]`` for every w,
        with all nodes' walk pairs stepped together."""
        graph = self._csr
        rng = self._rng
        n = graph.num_nodes
        meets = np.zeros(n, dtype=np.int64)
        for _ in range(self.d_samples):
            pos_a = np.arange(n, dtype=np.int64)
            pos_b = np.arange(n, dtype=np.int64)
            alive = np.ones(n, dtype=bool)
            for _ in range(self.depth):
                idx = np.nonzero(alive)[0]
                if len(idx) == 0:
                    break
                survive = rng.random(len(idx)) < self.c  # both walks continue
                alive[:] = False
                idx = idx[survive]
                if len(idx) == 0:
                    break
                nxt_a = graph.sample_in_neighbors(pos_a[idx], rng)
                nxt_b = graph.sample_in_neighbors(pos_b[idx], rng)
                ok = (nxt_a >= 0) & (nxt_b >= 0)
                idx, nxt_a, nxt_b = idx[ok], nxt_a[ok], nxt_b[ok]
                pos_a[idx] = nxt_a
                pos_b[idx] = nxt_b
                met = nxt_a == nxt_b
                meets[idx[met]] += 1
                alive[idx[~met]] = True
        return 1.0 - meets / self.d_samples

    def sync(self) -> None:
        """Full reconstruction — SLING's only response to a graph update.

        Any edge change invalidates hitting probabilities globally, so the
        unified maintenance verb is a from-scratch rebuild here (the §1
        motivation for index-free ProbeSim).
        """
        self._csr = as_csr(self._source_graph)
        self._build()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def build_time(self) -> float:
        return self._build_time

    @property
    def d(self) -> np.ndarray:
        return self._d

    def single_source(self, query: int) -> SimRankResult:
        """``s~(query, v) = sum_t H_t @ (H_t[query] * d)`` — T sparse matvecs."""
        query = check_query_node(query, self._csr.num_nodes)
        timer = Timer()
        with timer:
            n = self._csr.num_nodes
            scores = np.zeros(n, dtype=np.float64)
            for operator in self._hitting:
                row = operator.getrow(query).toarray().ravel()
                if not row.any():
                    continue
                scores += operator @ (row * self._d)
            scores[query] = 1.0
        return SimRankResult(
            query=query,
            scores=np.clip(scores, 0.0, 1.0),
            num_walks=0,
            elapsed=timer.elapsed,
            method="sling",
        )

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def index_bytes(self) -> int:
        """Raw payload of the hitting operators + d vector (Table 4 style)."""
        total = int(self._d.nbytes)
        for operator in self._hitting:
            total += int(
                operator.data.nbytes + operator.indices.nbytes + operator.indptr.nbytes
            )
        return total

    def index_nnz(self) -> int:
        """Total stored entries across the hitting operators."""
        return sum(int(op.nnz) for op in self._hitting)

    def __repr__(self) -> str:
        return (
            f"SLINGIndex(n={self._csr.num_nodes}, depth={len(self._hitting) - 1}, "
            f"theta={self.theta}, d_mode={self.d_mode!r})"
        )
