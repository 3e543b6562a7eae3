"""ProbeSim configuration and the Theorem 2 error budget.

Theorem 2 of the paper ties the user-facing absolute error guarantee ``eps_a``
to three internal knobs:

- ``eps``   — the Monte Carlo *sampling* error (drives the number of √c-walks
  ``nr = ceil(3 c / eps^2 * ln(n / delta))``);
- ``eps_t`` — the walk *truncation* parameter (Pruning rule 1: walks are cut
  at ``l_t = ceil(log eps_t / log sqrt(c))`` steps, contributing at most
  ``eps_t / 2`` error after the one-sided compensation);
- ``eps_p`` — the probe *score pruning* parameter (Pruning rule 2,
  contributing at most ``(1 + eps) / (1 - sqrt(c)) * eps_p``).

The guarantee holds whenever::

    eps + (1 + eps) / (1 - sqrt(c)) * eps_p + eps_t / 2  <=  eps_a

:class:`ErrorBudget` solves this split from user-chosen fractions and
verifies the inequality; :class:`ProbeSimConfig` bundles the budget with the
strategy, which alone picks the code path a query runs on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import BudgetError, ConfigurationError
from repro.utils.validation import check_positive_int, check_probability

#: strategies implemented by the engine (see repro.core.engine); the
#: strategy alone picks the code path ("native" is repro.core.native).
STRATEGIES = ("basic", "batch", "randomized", "hybrid", "native")


@dataclass(frozen=True)
class ErrorBudget:
    """Resolved (eps, eps_t, eps_p) split for a target ``eps_a`` (Theorem 2)."""

    eps_a: float
    eps: float
    eps_t: float
    eps_p: float
    c: float

    def __post_init__(self) -> None:
        slack = self.slack
        if slack < -1e-12:
            raise BudgetError(
                f"error budget violates Theorem 2 by {-slack:.3g}: "
                f"eps={self.eps}, eps_t={self.eps_t}, eps_p={self.eps_p}, "
                f"eps_a={self.eps_a}"
            )

    @property
    def sqrt_c(self) -> float:
        return math.sqrt(self.c)

    @property
    def consumed(self) -> float:
        """Left-hand side of the Theorem 2 inequality."""
        return (
            self.eps
            + (1.0 + self.eps) / (1.0 - self.sqrt_c) * self.eps_p
            + self.eps_t / 2.0
        )

    @property
    def slack(self) -> float:
        """Unused part of the budget (non-negative for a valid budget)."""
        return self.eps_a - self.consumed

    @classmethod
    def split(
        cls,
        eps_a: float,
        c: float,
        sampling_fraction: float = 0.7,
        truncation_fraction: float = 0.2,
        pruning_fraction: float = 0.1,
    ) -> "ErrorBudget":
        """Allocate ``eps_a`` across the three error sources by fraction.

        ``eps = f_s * eps_a``; ``eps_t = 2 * f_t * eps_a`` (so the truncation
        term ``eps_t / 2`` consumes ``f_t * eps_a``); ``eps_p`` is back-solved
        from the pruning term.  Fractions must sum to at most 1.
        """
        check_probability("eps_a", eps_a)
        check_probability("c", c)
        for name, frac in (
            ("sampling_fraction", sampling_fraction),
            ("truncation_fraction", truncation_fraction),
            ("pruning_fraction", pruning_fraction),
        ):
            if not 0.0 < frac < 1.0:
                raise BudgetError(f"{name} must lie in (0, 1), got {frac!r}")
        total = sampling_fraction + truncation_fraction + pruning_fraction
        if total > 1.0 + 1e-12:
            raise BudgetError(
                f"budget fractions must sum to <= 1, got {total:.6f} "
                f"({sampling_fraction} + {truncation_fraction} + {pruning_fraction})"
            )
        sqrt_c = math.sqrt(c)
        eps = sampling_fraction * eps_a
        eps_t = 2.0 * truncation_fraction * eps_a
        eps_p = pruning_fraction * eps_a * (1.0 - sqrt_c) / (1.0 + eps)
        return cls(eps_a=eps_a, eps=eps, eps_t=eps_t, eps_p=eps_p, c=c)


@dataclass(frozen=True)
class ProbeSimConfig:
    """All knobs of the ProbeSim engine.

    Parameters
    ----------
    c:
        SimRank decay factor (paper uses 0.6 in all experiments).
    eps_a:
        Absolute error guarantee of Definitions 1-2.
    delta:
        Failure probability of the guarantee.
    strategy:
        ``"basic"``    — Algorithm 1, one probe per walk prefix;
        ``"batch"``    — Algorithm 3, probes deduplicated via the
        reverse-reachability tree;
        ``"randomized"`` — Algorithm 1 with the randomized PROBE (Alg. 4);
        ``"hybrid"``   — §4.4, batch + per-path deterministic/randomized switch;
        ``"native"``   — Algorithm 3's estimate as one vectorized sweep
        over the walk trie (:mod:`repro.core.native`): walk sampling, trie
        construction and a hybrid sparse/dense level sweep run as array
        operations, driven by a counter-based RNG keyed on
        ``(seed, query, walk, step)``, so every query's bits depend only on
        ``(config, graph, seed, query)``, never on batch composition.
        ``"batch"`` is the per-prefix loop that ``"native"`` is held to.
    sampling_fraction / truncation_fraction / pruning_fraction:
        Theorem 2 budget split, see :class:`ErrorBudget`.
    compensate_truncation:
        Add ``eps_t / 2`` to every returned estimate, halving the (one-sided)
        truncation bias as §4.1 suggests.  Off by default because it makes
        every zero-similarity node score positive, which is confusing in
        exploratory use; the guarantee holds either way.
    num_walks:
        Override the theoretical walk count ``nr`` (practical knob used by
        the experiment harness; ``None`` keeps the Theorem 1 value).
    max_walk_length:
        Override the truncation length ``l_t`` (``None`` derives it from
        ``eps_t``).
    hybrid_switch_constant:
        The ``c0`` of §4.4: a path's deterministic probe switches to
        randomized continuation when its frontier out-degree sum exceeds
        ``c0 * weight * n``.
    seed:
        Seed for all randomness (int, Generator, or None).  With an integer
        seed every query draws from its own stream keyed by ``(seed,
        query)`` (:func:`repro.utils.rng.query_stream`), so an answer is a
        pure function of ``(config, graph, query)`` — independent of call
        order and of how a serving tier batched it.  Walks within one query
        remain draws from a single stream, so Theorem 1's variance analysis
        is untouched.
    """

    c: float = 0.6
    eps_a: float = 0.1
    delta: float = 0.01
    strategy: str = "hybrid"
    sampling_fraction: float = 0.7
    truncation_fraction: float = 0.2
    pruning_fraction: float = 0.1
    compensate_truncation: bool = False
    prune: bool = True
    num_walks: int | None = None
    max_walk_length: int | None = None
    hybrid_switch_constant: float = 0.5
    seed: object = None

    def __post_init__(self) -> None:
        check_probability("c", self.c)
        check_probability("eps_a", self.eps_a)
        check_probability("delta", self.delta)
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        if self.num_walks is not None:
            check_positive_int("num_walks", self.num_walks)
        if self.max_walk_length is not None:
            check_positive_int("max_walk_length", self.max_walk_length)
        if self.hybrid_switch_constant <= 0:
            raise ConfigurationError(
                f"hybrid_switch_constant must be positive, got {self.hybrid_switch_constant!r}"
            )
        # Resolve the budget eagerly so invalid splits fail at construction.
        object.__setattr__(self, "_budget", self._solve_budget())

    def _solve_budget(self) -> ErrorBudget:
        return ErrorBudget.split(
            self.eps_a,
            self.c,
            sampling_fraction=self.sampling_fraction,
            truncation_fraction=self.truncation_fraction,
            pruning_fraction=self.pruning_fraction,
        )

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #

    @property
    def budget(self) -> ErrorBudget:
        return self._budget  # type: ignore[attr-defined]

    @property
    def sqrt_c(self) -> float:
        return math.sqrt(self.c)

    def walk_count(self, num_nodes: int) -> int:
        """``nr = ceil(3 c / eps^2 * ln(n / delta))`` (Alg. 1 line 1), unless
        overridden by ``num_walks``."""
        if self.num_walks is not None:
            return self.num_walks
        check_positive_int("num_nodes", num_nodes)
        eps = self.budget.eps
        return max(1, math.ceil(3.0 * self.c / (eps * eps) * math.log(num_nodes / self.delta)))

    def walk_truncation(self) -> int:
        """``l_t = ceil(log eps_t / log sqrt(c))`` (Pruning rule 1), unless
        overridden by ``max_walk_length``."""
        if self.max_walk_length is not None:
            return self.max_walk_length
        if not self.prune:
            # no truncation: cap only by a generous safety bound so a
            # pathological RNG stream cannot loop forever.
            return 10_000
        return max(1, math.ceil(math.log(self.budget.eps_t) / math.log(self.sqrt_c)))

    def prune_threshold(self) -> float:
        """Pruning rule 2 threshold ``eps_p`` (0.0 when pruning is disabled)."""
        return self.budget.eps_p if self.prune else 0.0

    def with_overrides(self, **overrides) -> "ProbeSimConfig":
        """A copy of this config with ``overrides`` applied."""
        return replace(self, **overrides)
