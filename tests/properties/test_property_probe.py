"""Property-based tests for PROBE invariants on random graphs and prefixes."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.probe import probe_deterministic, probe_deterministic_python
from repro.core.walks import sample_sqrt_c_walk
from repro.graph import CSRGraph, DiGraph


@st.composite
def graph_and_prefix(draw):
    """A connected-ish random digraph plus a valid reverse-walk prefix."""
    n = draw(st.integers(min_value=3, max_value=10))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, min_size=n, max_size=4 * n, unique=True))
    g = DiGraph.from_edges(edges, num_nodes=n)
    start = draw(st.integers(min_value=0, max_value=n - 1))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    prefix = sample_sqrt_c_walk(g, start, 0.9, rng, max_length=5)
    return g, prefix


class TestProbeInvariants:
    @given(graph_and_prefix(), st.sampled_from([0.3, 0.5, math.sqrt(0.6), 0.9]))
    @settings(max_examples=120, deadline=None)
    def test_scores_are_survival_bounded_probabilities(self, data, sqrt_c):
        """Each score is Pr[a walk from v follows the prefix pattern], which
        requires surviving len(prefix)-1 geometric stops: <= sqrt(c)^(i-1).

        (The scores of *different* nodes are probabilities of different
        walks' events, so their sum over v is NOT bounded by 1 — an earlier
        draft of this test asserted that and hypothesis refuted it.)
        """
        g, prefix = data
        if len(prefix) < 2:
            return
        scores = probe_deterministic_python(g, prefix, sqrt_c)
        bound = sqrt_c ** (len(prefix) - 1)
        assert all(0.0 < v <= bound + 1e-12 for v in scores.values())

    @given(graph_and_prefix(), st.sampled_from([0.5, math.sqrt(0.6)]))
    @settings(max_examples=120, deadline=None)
    def test_backends_agree(self, data, sqrt_c):
        g, prefix = data
        if len(prefix) < 2:
            return
        csr = CSRGraph.from_digraph(g)
        sparse_scores = probe_deterministic_python(g, prefix, sqrt_c)
        dense = probe_deterministic(csr, prefix, sqrt_c)
        assert np.count_nonzero(dense) == len(sparse_scores)
        for node, value in sparse_scores.items():
            assert abs(dense[node] - value) < 1e-12

    @given(graph_and_prefix(), st.floats(min_value=0.001, max_value=0.2))
    @settings(max_examples=100, deadline=None)
    def test_pruning_one_sided_and_bounded(self, data, eps_p):
        """Pruning error is one-sided and bounded by (i-1) * eps_p.

        Reproduction finding (see DESIGN.md §7): the paper's Lemma 7 states a
        per-probe bound of eps_p, but its induction only accounts for one
        pruning iteration.  When Pruning rule 2 fires at several iterations
        of the same probe the errors stack; hypothesis found concrete
        counterexamples to the eps_p bound (e.g. a 3-node graph, prefix
        length 5, diff 1.44 * eps_p).  The provable bound is eps_p per
        pruning iteration, i.e. (len(prefix) - 1) * eps_p per probe, which
        is what we assert here.  Truncation keeps i small, so the end-to-end
        eps_a guarantee still holds with the paper's constants in all
        engine-level tests.
        """
        g, prefix = data
        if len(prefix) < 2:
            return
        sqrt_c = 0.7
        csr = CSRGraph.from_digraph(g)
        full = probe_deterministic(csr, prefix, sqrt_c)
        pruned = probe_deterministic(csr, prefix, sqrt_c, eps_p)
        diff = full - pruned
        assert diff.min() >= -1e-12
        assert diff.max() <= (len(prefix) - 1) * eps_p + 1e-12

    @given(graph_and_prefix())
    @settings(max_examples=80, deadline=None)
    def test_avoided_node_never_scored(self, data):
        """The final iteration avoids prefix[0]... actually each iteration j
        avoids u_{i-j-1}; the last one avoids u_1, so the query node can
        never appear in the output of its own probe."""
        g, prefix = data
        if len(prefix) < 2:
            return
        scores = probe_deterministic_python(g, prefix, 0.7)
        assert prefix[0] not in scores

    @given(graph_and_prefix())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_sqrt_c(self, data):
        """Scores are pointwise non-decreasing in sqrt(c) (every path weight
        scales by sqrt(c)^steps)."""
        g, prefix = data
        if len(prefix) < 2:
            return
        low = probe_deterministic_python(g, prefix, 0.4)
        high = probe_deterministic_python(g, prefix, 0.8)
        for node, value in low.items():
            assert high.get(node, 0.0) >= value - 1e-12
