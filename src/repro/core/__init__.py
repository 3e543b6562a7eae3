"""The paper's primary contribution: the ProbeSim algorithm.

Public surface:

:class:`~repro.core.engine.ProbeSim`
    single-source and top-k SimRank queries (Algorithms 1 and 3 with all of
    §4's optimizations).
:class:`~repro.core.config.ProbeSimConfig`
    parameters and the Theorem 2 error-budget solver.
:class:`~repro.core.results.SimRankResult` / :class:`~repro.core.results.TopKResult`
    query result containers.
:class:`~repro.core.walk_trie.WalkTrie`
    Algorithm 3's walk prefix trie, which both code paths probe (see below).

Two code paths for Algorithm 3 — the trie-sharing idea
-------------------------------------------------------

ProbeSim's per-query cost is dominated by probing the sampled √c-walks.
``ProbeSimConfig.strategy`` alone picks the code path.  The **loop**
strategies follow the paper literally; ``strategy="batch"`` probes every
distinct walk prefix in the walk trie by its own frontier propagation, so a
batch of ``R`` walks pays ``O(sum_t depth_t)`` interpreter-driven
propagation steps.

``strategy="native"`` (:mod:`repro.core.native`) estimates the same
Algorithm 3 quantity and exploits two algebraic facts:

1. all prefixes ending at the same trie level have the same number of
   propagation steps left, and
2. PROBE is linear in its start vector, while the "avoid" projection at each
   step depends only on the *parent* trie node — which siblings share.

So instead of one probe per prefix it seeds every distinct prefix with its
walk multiplicity, merges sibling columns into their parent, advances **all
columns of a trie level at once** (sparse entry expansion on deep levels,
one ``csr @ dense`` product once a level's support is wide), and zeroes
each column at its parent's graph node.  Its walks come from a counter RNG
keyed on ``(seed, query)``, so an answer never depends on call order or
batch composition; see ``benchmarks/bench_native_engine.py`` for timings.
Every strategy samples through that counter RNG, so one seeded query
draws one walk set whichever path probes it.

When to prefer which:

- ``native``: throughput — large graphs, many walks, serving.
- ``batch``: the cross-validation oracle (it is the transliteration of
  Algorithm 3), and with ``basic``, ``randomized`` and ``hybrid`` the
  paper's ablations, whose probes run per prefix or draw RNG per path.

Without pruning, ``batch`` and ``native`` on one seed agree node-for-node
to float round-off (bit-for-bit when every intermediate is exactly
representable); with it, ``batch`` drops at most the Pruning rule 2 mass
that ``native`` keeps.  ``tests/core/test_native_engine.py`` holds the two
to this.
"""

from repro.core.config import ErrorBudget, ProbeSimConfig
from repro.core.engine import ProbeSim
from repro.core.probe import probe_deterministic
from repro.core.randomized_probe import probe_randomized
from repro.core.results import SimRankResult, TopKResult
from repro.core.walk_trie import WalkTrie
from repro.core.walks import sample_sqrt_c_walk, truncation_length

__all__ = [
    "ErrorBudget",
    "ProbeSim",
    "ProbeSimConfig",
    "SimRankResult",
    "TopKResult",
    "WalkTrie",
    "probe_deterministic",
    "probe_randomized",
    "sample_sqrt_c_walk",
    "truncation_length",
]
