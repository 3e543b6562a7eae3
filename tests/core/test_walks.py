"""Unit tests for √c-walk sampling and truncation.

:func:`~repro.core.walks.sample_sqrt_c_walk` is the scalar Definition 3
reference; ProbeSim draws its walk batches with the counter-RNG sampler
(:func:`repro.core.native.fallback.sample_walks`), tested against it here.
"""

import math

import numpy as np
import pytest

from repro import ProbeSim
from repro.core.engine import QueryStats
from repro.core.native import fallback
from repro.core.native.rng import stream_base, walk_bases
from repro.core.walk_trie import WalkTrie
from repro.core.walks import (
    expected_walk_length,
    sample_sqrt_c_walk,
    truncation_length,
)
from repro.graph import CSRGraph, DiGraph
from repro.graph.csr import as_csr


@pytest.fixture(scope="module")
def cycle_csr():
    """3-cycle: every node has exactly one in-neighbour, walks never dead-end."""
    return CSRGraph.from_edges([(0, 1), (1, 2), (2, 0)])


def counter_walks(graph, start, count, sqrt_c, seed=0, max_length=10_000,
                  bases=None):
    """``count`` walks from ``start`` as ProbeSim draws them for query
    ``start`` at ``seed`` (or from explicit per-walk ``bases``)."""
    csr = as_csr(graph)
    if bases is None:
        bases = walk_bases(stream_base(seed, start), count)
    nodes, lengths = fallback.sample_walks(
        csr.in_indptr, csr.in_indices, csr.in_degrees,
        bases, start, sqrt_c, max_length,
    )
    return [nodes[i, : lengths[i]].tolist() for i in range(count)]


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
    """ProbeSim's batch sampler draws Definition 3's walks, many at a time."""

    def test_count_and_starts(self, toy_csr):
        walks = counter_walks(toy_csr, 0, 37, 0.5)
        assert len(walks) == 37
        assert all(walk[0] == 0 for walk in walks)

    def test_edges_valid(self, toy, toy_csr):
        for walk in counter_walks(toy_csr, 0, 100, 0.7, max_length=8):
            for current, nxt in zip(walk, walk[1:]):
                assert nxt in toy.in_neighbors(current)

    def test_max_length(self, cycle_csr):
        walks = counter_walks(cycle_csr, 0, 200, 0.99, max_length=5)
        assert max(len(w) for w in walks) <= 5
        # with sqrt_c = 0.99 nearly every walk should hit the cap
        assert sum(len(w) == 5 for w in walks) > 150

    def test_zero_count(self, toy_csr):
        assert counter_walks(toy_csr, 0, 0, 0.5) == []

    def test_batch_length_distribution_matches_sequential(self, cycle_csr):
        sqrt_c = 0.7
        batch = counter_walks(cycle_csr, 0, 5000, sqrt_c, seed=1)
        seq_rng = np.random.default_rng(2)
        seq = [sample_sqrt_c_walk(cycle_csr, 0, sqrt_c, seq_rng) for _ in range(5000)]
        mean_batch = np.mean([len(w) for w in batch])
        mean_seq = np.mean([len(w) for w in seq])
        assert mean_batch == pytest.approx(mean_seq, rel=0.06)

    def test_digraph_fallback(self, toy, toy_csr):
        """A DiGraph engine samples through its CSR snapshot: same walks."""
        cfg = dict(strategy="basic", seed=3, num_walks=10)
        from_digraph = ProbeSim(toy, **cfg)._sample_walks(0, QueryStats())
        assert len(from_digraph) == 10
        assert from_digraph == ProbeSim(toy_csr, **cfg)._sample_walks(0, QueryStats())


class TestDeterminism:
    """Walk ``i`` of a query draws only from its own counter key, derived
    from ``(seed, query, i)``: same seed, same walks, whichever strategy
    asks — the contract the loop-oracle suite builds on."""

    def test_arrays_and_lists_share_one_rng_stream(self, toy_csr):
        engine = ProbeSim(toy_csr, strategy="basic", seed=42, num_walks=250,
                          max_walk_length=7)
        walks = engine._sample_walks(0, QueryStats())
        nodes, lengths = fallback.sample_walks(
            toy_csr.in_indptr, toy_csr.in_indices, toy_csr.in_degrees,
            walk_bases(stream_base(42, 0), 250), 0, engine.config.sqrt_c, 7,
        )
        assert [nodes[i, : lengths[i]].tolist() for i in range(250)] == walks
        assert nodes.dtype == np.int32
        # padding is strictly -1 beyond each walk's end
        for i in range(250):
            assert np.all(nodes[i, lengths[i]:] == -1)

    def test_same_seed_identical_walks_across_engines(self, tiny_wiki):
        """Every strategy's walks are the ones a seeded native query
        replays from ``walk_bases(stream_base(seed, query), nr)``: the lists
        ``basic`` and ``randomized`` probe and the trie ``batch`` and
        ``hybrid`` probe, which is also the trie native sweeps."""
        cfg = dict(eps_a=0.15, seed=77, num_walks=300)
        native = ProbeSim(tiny_wiki, strategy="native", **cfg)
        native.single_source(9)
        sqrt_c, max_len = native.config.sqrt_c, native.config.walk_truncation()
        replayed = counter_walks(tiny_wiki, 9, 300, sqrt_c, seed=77,
                                 max_length=max_len)
        expected = WalkTrie.from_walks(replayed)
        assert native.last_stats.num_tree_nodes == expected.num_tree_nodes
        assert native.last_stats.walk_length_total == sum(map(len, replayed))
        for strategy in ("basic", "batch", "randomized", "hybrid"):
            engine = ProbeSim(tiny_wiki, strategy=strategy, **cfg)
            assert engine._sample_walks(9, QueryStats()) == replayed
            trie = engine._sample_trie(9, QueryStats())
            assert list(trie.iter_prefixes()) == list(expected.iter_prefixes())

    def test_reseeding_per_walk_would_correlate(self, cycle_csr):
        """Anti-regression for per-walk keys: walks sharing one key collapse
        onto one trajectory, which giving walk ``i`` its own base prevents."""
        base = stream_base(5, 0)
        shared = np.full(50, walk_bases(base, 1)[0], dtype=np.uint64)
        own = walk_bases(base, 50)
        collapsed = counter_walks(cycle_csr, 0, 50, 0.9, max_length=12, bases=shared)
        distinct = counter_walks(cycle_csr, 0, 50, 0.9, max_length=12, bases=own)
        assert len({tuple(w) for w in collapsed}) == 1  # all identical: broken
        assert len({tuple(w) for w in distinct}) > 1  # independent: correct
