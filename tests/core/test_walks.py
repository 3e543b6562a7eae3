"""Unit tests for √c-walk sampling and truncation."""

import math

import numpy as np
import pytest

from repro.core.walks import (
    expected_walk_length,
    sample_sqrt_c_walk,
    sample_walk_batch,
    truncation_length,
)
from repro.graph import CSRGraph, DiGraph


@pytest.fixture(scope="module")
def cycle_csr():
    """3-cycle: every node has exactly one in-neighbour, walks never dead-end."""
    return CSRGraph.from_edges([(0, 1), (1, 2), (2, 0)])


class TestTruncationLength:
    def test_formula(self):
        sqrt_c = math.sqrt(0.6)
        assert truncation_length(0.05, sqrt_c) == math.ceil(
            math.log(0.05) / math.log(sqrt_c)
        )

    def test_paper_example(self):
        # §4.1 running example: eps_t = 0.05 at sqrt(c') = 0.5 truncates a
        # 5-node walk to 4 nodes: (sqrt(c))^4 < 0.05 <= (sqrt(c))^4... l_t=5?
        # log(0.05)/log(0.5) = 4.32 -> ceil 5; the example keeps 4 nodes
        # because the walk is cut *at step* l_t (nodes beyond index l_t drop).
        assert truncation_length(0.05, 0.5) == 5

    def test_tighter_eps_longer_walks(self):
        sqrt_c = math.sqrt(0.6)
        assert truncation_length(0.001, sqrt_c) > truncation_length(0.05, sqrt_c)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            truncation_length(0.0, 0.5)
        with pytest.raises(ValueError):
            truncation_length(0.1, 1.0)


class TestSampleWalk:
    def test_starts_at_source(self, toy, rng):
        walk = sample_sqrt_c_walk(toy, 3, 0.5, rng)
        assert walk[0] == 3

    def test_steps_follow_in_edges(self, toy, rng):
        for _ in range(100):
            walk = sample_sqrt_c_walk(toy, 0, 0.9, rng, max_length=10)
            for current, nxt in zip(walk, walk[1:]):
                assert nxt in toy.in_neighbors(current)

    def test_max_length_respected(self, cycle_csr, rng):
        for _ in range(50):
            walk = sample_sqrt_c_walk(cycle_csr, 0, 0.99, rng, max_length=4)
            assert len(walk) <= 4

    def test_dead_end_stops_walk(self, rng):
        g = DiGraph.from_edges([(0, 1)])  # node 0 has no in-neighbours
        for _ in range(20):
            walk = sample_sqrt_c_walk(g, 1, 0.999, rng, max_length=10)
            assert walk in ([1], [1, 0])

    def test_geometric_length_distribution(self, cycle_csr, rng):
        # On a cycle (no dead ends), len - 1 ~ Geometric(1 - sqrt_c):
        # E[len] = 1 / (1 - sqrt_c).
        sqrt_c = 0.6
        lengths = [
            len(sample_sqrt_c_walk(cycle_csr, 0, sqrt_c, rng)) for _ in range(4000)
        ]
        mean = np.mean(lengths)
        assert mean == pytest.approx(expected_walk_length(sqrt_c), rel=0.08)

    def test_zero_continue_probability_gives_singleton(self, cycle_csr, rng):
        # sqrt_c ~ 0 stops immediately (rng.random() >= sqrt_c almost surely)
        walk = sample_sqrt_c_walk(cycle_csr, 1, 1e-12, rng)
        assert walk == [1]

    def test_works_on_digraph_and_csr(self, toy, toy_csr):
        walk_dg = sample_sqrt_c_walk(toy, 0, 0.5, np.random.default_rng(0))
        walk_csr = sample_sqrt_c_walk(toy_csr, 0, 0.5, np.random.default_rng(0))
        assert walk_dg[0] == walk_csr[0] == 0


class TestSampleWalkBatch:
    def test_count_and_starts(self, toy_csr, rng):
        walks = sample_walk_batch(toy_csr, 0, 37, 0.5, rng)
        assert len(walks) == 37
        assert all(walk[0] == 0 for walk in walks)

    def test_edges_valid(self, toy, toy_csr, rng):
        for walk in sample_walk_batch(toy_csr, 0, 100, 0.7, rng, max_length=8):
            for current, nxt in zip(walk, walk[1:]):
                assert nxt in toy.in_neighbors(current)

    def test_max_length(self, cycle_csr, rng):
        walks = sample_walk_batch(cycle_csr, 0, 200, 0.99, rng, max_length=5)
        assert max(len(w) for w in walks) <= 5
        # with sqrt_c = 0.99 nearly every walk should hit the cap
        assert sum(len(w) == 5 for w in walks) > 150

    def test_zero_count(self, toy_csr, rng):
        assert sample_walk_batch(toy_csr, 0, 0, 0.5, rng) == []

    def test_batch_length_distribution_matches_sequential(self, cycle_csr):
        sqrt_c = 0.7
        batch = sample_walk_batch(
            cycle_csr, 0, 5000, sqrt_c, np.random.default_rng(1)
        )
        seq_rng = np.random.default_rng(2)
        seq = [sample_sqrt_c_walk(cycle_csr, 0, sqrt_c, seq_rng) for _ in range(5000)]
        mean_batch = np.mean([len(w) for w in batch])
        mean_seq = np.mean([len(w) for w in seq])
        assert mean_batch == pytest.approx(mean_seq, rel=0.06)

    def test_digraph_fallback(self, toy, rng):
        walks = sample_walk_batch(toy, 0, 10, 0.5, rng)
        assert len(walks) == 10


class TestDeterminism:
    """One seeded Generator threads the whole batch: same seed, same walks —
    the contract both execution engines build their equivalence on."""

    def test_arrays_and_lists_share_one_rng_stream(self, toy_csr):
        from repro.core.walks import sample_walk_arrays

        nodes, lengths = sample_walk_arrays(
            toy_csr, 0, 250, 0.7, np.random.default_rng(42), max_length=7
        )
        walks = sample_walk_batch(
            toy_csr, 0, 250, 0.7, np.random.default_rng(42), max_length=7
        )
        assert [nodes[i, : lengths[i]].tolist() for i in range(250)] == walks
        assert nodes.dtype == np.int32
        # padding is strictly -1 beyond each walk's end
        for i in range(250):
            assert np.all(nodes[i, lengths[i]:] == -1)

    def test_same_seed_identical_walks_across_engines(self, tiny_wiki):
        """The loop engine's walk lists and the array sampler consume the RNG
        identically, so a fixed seed pins one walk multiset whichever form
        the trie is built from (the precondition of the loop-oracle suite)."""
        from repro import ProbeSim
        from repro.core.engine import QueryStats
        from repro.core.walk_trie import WalkTrie
        from repro.core.walks import sample_walk_arrays
        from repro.utils.rng import derive_stream

        loop = ProbeSim(tiny_wiki, strategy="batch", eps_a=0.15, seed=77, num_walks=300)
        loop_walks = loop._sample_walks(9, QueryStats())
        nodes, lengths = sample_walk_arrays(
            loop.graph, 9, 300, loop.config.sqrt_c, derive_stream(77, 9),
            max_length=loop.config.walk_truncation(),
        )
        trie = WalkTrie.from_walk_arrays(nodes, lengths)
        assert dict(
            (tuple(p), w) for p, w in WalkTrie.from_walks(loop_walks).iter_prefixes()
        ) == dict((tuple(p), w) for p, w in trie.iter_prefixes())

    def test_reseeding_per_walk_would_correlate(self, cycle_csr):
        """Anti-regression for the shared-generator fix: re-seeding per walk
        collapses the batch onto one trajectory, which is exactly what
        threading a single Generator prevents."""
        shared_rng = np.random.default_rng(5)
        threaded = sample_walk_batch(cycle_csr, 0, 50, 0.9, shared_rng, 12)
        reseeded = [
            sample_sqrt_c_walk(cycle_csr, 0, 0.9, np.random.default_rng(5), 12)
            for _ in range(50)
        ]
        assert len({tuple(w) for w in reseeded}) == 1  # all identical: broken
        assert len({tuple(w) for w in threaded}) > 1  # independent: correct
