"""Tests for the adaptive top-k extension."""

import numpy as np
import pytest

from repro.core.engine import ProbeSim
from repro.datasets import TOY_DECAY
from repro.errors import QueryError
from repro.extensions.adaptive_topk import AdaptiveTopK
from repro.graph import DiGraph


class TestCorrectness:
    def test_top1_matches_truth_on_toy(self, toy, toy_truth):
        adaptive = AdaptiveTopK(toy, c=TOY_DECAY, eps_a=0.05, delta=0.01, seed=1)
        top = adaptive.topk(0, 1)
        assert int(top.nodes[0]) == int(toy_truth.topk_nodes(0, 1)[0])

    def test_topk_set_matches_full_engine(self, tiny_wiki, tiny_wiki_truth):
        """The adaptive set must agree with exact ground truth on the
        well-separated part of the ranking."""
        k = 5
        adaptive = AdaptiveTopK(tiny_wiki, eps_a=0.1, delta=0.05, seed=2)
        for query in (10, 50):
            top = adaptive.topk(query, k)
            true_row = tiny_wiki_truth.single_source(query)
            kth = tiny_wiki_truth.kth_score(query, k)
            # tie-tolerant correctness: every returned node's true score is
            # within 2*eps_a of the k-th best (statistical stopping gives set
            # correctness only up to the confidence radius at the boundary)
            for node in top.nodes.tolist():
                assert true_row[node] >= kth - 0.1

    def test_method_label(self, toy):
        adaptive = AdaptiveTopK(toy, c=TOY_DECAY, eps_a=0.1, seed=3)
        assert adaptive.topk(0, 2).method == "probesim-adaptive"

    def test_topk_applies_truncation_compensation(self):
        """Top-k scores get single_source's §4.1 recentring: with
        compensation on, no non-query score falls below ``eps_t / 2``."""
        graph = DiGraph.from_edges(
            [(0, 1), (1, 0), (2, 0), (2, 1), (3, 2), (4, 3), (5, 4)]
        )
        adaptive = AdaptiveTopK(graph, eps_a=0.2, seed=3,
                                compensate_truncation=True, strategy="batch")
        top = adaptive.topk(0, 5)
        assert 0 not in top.nodes.tolist()
        assert top.scores.min() >= adaptive.config.budget.eps_t / 2.0

    def test_deterministic_given_seed(self, toy):
        a = AdaptiveTopK(toy, c=TOY_DECAY, eps_a=0.1, seed=4).topk(0, 3)
        b = AdaptiveTopK(toy, c=TOY_DECAY, eps_a=0.1, seed=4).topk(0, 3)
        assert a.nodes.tolist() == b.nodes.tolist()
        np.testing.assert_array_equal(a.scores, b.scores)


class TestAdaptivity:
    def test_easy_instance_stops_early(self, toy):
        """When eps_a is much tighter than the top-1 gap (0.131 vs 0.070),
        the stopping rule fires long before the Theorem 1 walk count.

        (At eps_a comparable to the gap, running to the cap is the correct
        behaviour — the confidence radius and the gap are the same scale.)
        """
        adaptive = AdaptiveTopK(toy, c=TOY_DECAY, eps_a=0.015, delta=0.01, seed=5)
        adaptive.topk(0, 1)
        full_walks = adaptive.config.walk_count(8)
        assert adaptive.last_stopped_early
        assert adaptive.last_walks_used < full_walks / 2

    def test_tied_boundary_runs_to_cap(self, toy):
        """Toy nodes g and h share their in-neighbourhood, so s(a,g) = s(a,h)
        exactly; with that tie sitting on the k boundary the stopping rule
        can never fire and the walk cap is reached."""
        # ranking from a: d > e > g = h > c ... -> k=3 puts the g/h tie on
        # the boundary (order[2] vs order[3]).
        adaptive = AdaptiveTopK(toy, c=TOY_DECAY, eps_a=0.1, delta=0.1, seed=6)
        adaptive.topk(0, 3)
        assert not adaptive.last_stopped_early
        assert adaptive.last_walks_used == adaptive.config.walk_count(8)

    @pytest.mark.parametrize("seed", [6, 16, 26])
    def test_run_to_cap_probes_the_engines_walks(self, toy, seed):
        """Doubling batches slice the query's walk bases in order, so a run
        that never stops early probes exactly the full engine's walk set and
        returns its top-k (the g/h tie keeps the rule from firing)."""
        cfg = dict(c=TOY_DECAY, eps_a=0.1, delta=0.1, seed=seed, strategy="batch")
        adaptive = AdaptiveTopK(toy, **cfg)
        top = adaptive.topk(0, 3)
        assert not adaptive.last_stopped_early
        full = ProbeSim(toy, **cfg).topk(0, 3)
        assert top.node_set() == full.node_set()
        np.testing.assert_allclose(top.scores, full.scores, rtol=0, atol=1e-12)

    def test_walks_used_never_exceed_cap(self, tiny_wiki):
        adaptive = AdaptiveTopK(tiny_wiki, eps_a=0.15, delta=0.1, seed=7)
        adaptive.topk(10, 3)
        assert adaptive.last_walks_used <= adaptive.config.walk_count(
            tiny_wiki.num_nodes
        )

    def test_geometric_batching(self, toy):
        """Walk totals follow initial_batch * (2^r - 1) until stop/cap."""
        adaptive = AdaptiveTopK(toy, c=TOY_DECAY, eps_a=0.05, delta=0.01,
                                seed=8, initial_batch=32)
        adaptive.topk(0, 1)
        used = adaptive.last_walks_used
        # 32, 96, 224, 480, ... (sums of doubling batches)
        sums = {32 * (2**r - 1) for r in range(1, 15)}
        cap = adaptive.config.walk_count(8)
        assert used in sums or used == cap


class TestValidation:
    def test_bad_k(self, toy):
        adaptive = AdaptiveTopK(toy, c=TOY_DECAY, eps_a=0.1, seed=9)
        with pytest.raises(QueryError):
            adaptive.topk(0, 0)
        with pytest.raises(QueryError):
            adaptive.topk(0, 8)  # k must be < n

    def test_bad_query(self, toy):
        with pytest.raises(QueryError):
            AdaptiveTopK(toy, c=TOY_DECAY, eps_a=0.1, seed=10).topk(99, 1)

    def test_bad_initial_batch(self, toy):
        with pytest.raises(QueryError):
            AdaptiveTopK(toy, initial_batch=0)

    def test_repr(self, toy):
        assert "AdaptiveTopK" in repr(AdaptiveTopK(toy, c=TOY_DECAY, eps_a=0.1))
