"""Tests for the randomized PROBE (Algorithm 4).

The key property is Lemma 6 / Theorem 3: for every node, membership in the
final level is a Bernoulli trial whose success probability equals the
deterministic PROBE score.  We verify it empirically against the
deterministic probe with tight CLT tolerances.
"""

import numpy as np
import pytest

from repro.core.probe import probe_deterministic
from repro.core.randomized_probe import (
    probe_randomized,
    probe_randomized_from_membership,
)
from repro.core.walks import sample_sqrt_c_walk
from repro.datasets.toy import node_id
from repro.errors import QueryError
from repro.graph import CSRGraph

SQRT_C_TOY = 0.5


def _walk(*names):
    return [node_id(name) for name in names]


class TestUnbiasedness:
    def test_matches_deterministic_on_paper_example(self, toy_csr):
        prefix = _walk("a", "b", "a", "b")
        truth = probe_deterministic(toy_csr, prefix, SQRT_C_TOY)
        rng = np.random.default_rng(42)
        trials = 40_000
        counts = np.zeros(toy_csr.num_nodes)
        for _ in range(trials):
            selected = probe_randomized(toy_csr, prefix, SQRT_C_TOY, rng)
            counts[selected] += 1
        empirical = counts / trials
        # CLT band: 4 sigma with sigma <= sqrt(p(1-p)/trials) <= 0.0025
        np.testing.assert_allclose(empirical, truth, atol=0.006)

    def test_matches_deterministic_on_short_prefix(self, toy_csr):
        prefix = _walk("a", "b")
        truth = probe_deterministic(toy_csr, prefix, SQRT_C_TOY)
        rng = np.random.default_rng(7)
        trials = 30_000
        counts = np.zeros(toy_csr.num_nodes)
        for _ in range(trials):
            counts[probe_randomized(toy_csr, prefix, SQRT_C_TOY, rng)] += 1
        np.testing.assert_allclose(counts / trials, truth, atol=0.011)

    def test_matches_on_random_graph_prefix(self, tiny_wiki_csr):
        rng = np.random.default_rng(3)
        sqrt_c = np.sqrt(0.6)
        # pick a prefix with a meaningfully large frontier
        walk = None
        for _ in range(100):
            start = int(rng.integers(tiny_wiki_csr.num_nodes))
            candidate = sample_sqrt_c_walk(tiny_wiki_csr, start, sqrt_c, rng, max_length=4)
            if len(candidate) >= 3:
                walk = candidate
                break
        assert walk is not None
        truth = probe_deterministic(tiny_wiki_csr, walk, sqrt_c)
        trials = 12_000
        counts = np.zeros(tiny_wiki_csr.num_nodes)
        for _ in range(trials):
            counts[probe_randomized(tiny_wiki_csr, walk, sqrt_c, rng)] += 1
        # only check nodes with non-negligible probability (tight abs band)
        significant = np.nonzero(truth > 0.01)[0]
        np.testing.assert_allclose(
            (counts / trials)[significant], truth[significant], atol=0.02
        )


class TestMechanics:
    def test_selected_nodes_respect_avoidance(self, toy_csr):
        # final iteration of (a, b) avoids a: a must never be selected
        rng = np.random.default_rng(0)
        for _ in range(500):
            selected = probe_randomized(toy_csr, _walk("a", "b"), SQRT_C_TOY, rng)
            assert node_id("a") not in selected.tolist()

    def test_selected_only_reachable_nodes(self, toy_csr):
        # probing (a, b): only c, d, e have positive deterministic score
        rng = np.random.default_rng(1)
        allowed = {node_id("c"), node_id("d"), node_id("e")}
        for _ in range(500):
            selected = probe_randomized(toy_csr, _walk("a", "b"), SQRT_C_TOY, rng)
            assert set(selected.tolist()) <= allowed

    def test_prefix_too_short(self, toy_csr):
        with pytest.raises(QueryError):
            probe_randomized(toy_csr, [0], SQRT_C_TOY)

    def test_dead_prefix_returns_empty(self):
        csr = CSRGraph.from_edges([(1, 0)])
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert len(probe_randomized(csr, [0, 1], 0.5, rng)) == 0

    def test_candidate_fallback_to_all_nodes(self):
        """When the level's out-degree mass exceeds n, Algorithm 4 scans V.

        A star where node 0 points at everything triggers the fallback when 0
        is in the level; semantics must be unchanged (selected nodes are
        exactly out-neighbours that sampled a level member and accepted).
        """
        n = 12
        edges = [(0, v) for v in range(1, n)] + [(v, 0) for v in range(1, n)]
        csr = CSRGraph.from_edges(edges)
        truth = probe_deterministic(csr, [5, 0], np.sqrt(0.6))
        rng = np.random.default_rng(9)
        trials = 20_000
        counts = np.zeros(n)
        for _ in range(trials):
            counts[probe_randomized(csr, [5, 0], np.sqrt(0.6), rng)] += 1
        np.testing.assert_allclose(counts / trials, truth, atol=0.015)


class TestContinuationFromMembership:
    def test_continuation_from_initial_level_matches_full_probe(self, toy_csr):
        """Starting at iteration 0 with {u_i} must equal probe_randomized."""
        prefix = _walk("a", "b", "a", "b")
        membership = np.zeros(toy_csr.num_nodes, dtype=bool)
        membership[prefix[-1]] = True
        rng_a = np.random.default_rng(17)
        rng_b = np.random.default_rng(17)
        for _ in range(200):
            full = probe_randomized(toy_csr, prefix, SQRT_C_TOY, rng_a)
            cont = probe_randomized_from_membership(
                toy_csr, prefix, 0, membership, SQRT_C_TOY, rng_b
            )
            assert sorted(full.tolist()) == sorted(cont.tolist())

    def test_continuation_is_unbiased_given_marginals(self, toy_csr):
        """Bernoulli-sampling a deterministic mid-level then continuing
        randomized reproduces the final deterministic marginals (the §4.4
        hybrid's correctness argument)."""
        prefix = _walk("a", "b", "a", "b")
        truth = probe_deterministic(toy_csr, prefix, SQRT_C_TOY)
        # deterministic level after iteration 0 (H_1): probe of suffix...
        # compute H_1 directly: expand {b} avoiding u_3 = a.
        h1 = np.zeros(toy_csr.num_nodes)
        h1[node_id("c")] = 1 / 6
        h1[node_id("d")] = 1 / 2
        h1[node_id("e")] = 1 / 4
        rng = np.random.default_rng(23)
        trials = 40_000
        counts = np.zeros(toy_csr.num_nodes)
        for _ in range(trials):
            membership = rng.random(toy_csr.num_nodes) < h1
            selected = probe_randomized_from_membership(
                toy_csr, prefix, 1, membership, SQRT_C_TOY, rng
            )
            counts[selected] += 1
        np.testing.assert_allclose(counts / trials, truth, atol=0.006)

    def test_invalid_start_iteration(self, toy_csr):
        membership = np.zeros(toy_csr.num_nodes, dtype=bool)
        with pytest.raises(QueryError):
            probe_randomized_from_membership(
                toy_csr, _walk("a", "b"), 5, membership, SQRT_C_TOY
            )

    def test_empty_membership_returns_empty(self, toy_csr):
        membership = np.zeros(toy_csr.num_nodes, dtype=bool)
        out = probe_randomized_from_membership(
            toy_csr, _walk("a", "b", "a"), 1, membership, SQRT_C_TOY
        )
        assert len(out) == 0
