"""Tests for the walk-cache lightweight index (§7 future-work extension)."""

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.datasets import TOY_DECAY
from repro.errors import QueryError
from repro.eval.metrics import abs_error_max
from repro.extensions.walk_index import WalkIndex
from repro.graph import EdgeUpdate
from repro.graph.dynamic import MutationSampler


class TestCaching:
    def test_accuracy_matches_engine_guarantee(self, toy, toy_truth):
        index = WalkIndex(toy, c=TOY_DECAY, eps_a=0.05, delta=0.01, seed=2)
        for query in range(4):
            result = index.single_source(query)
            err = abs_error_max(result.scores, toy_truth.single_source(query), query)
            assert err <= 0.05

    def test_repeated_query_hits_cache(self, toy):
        index = WalkIndex(toy, c=TOY_DECAY, eps_a=0.1, seed=3)
        index.single_source(0)
        assert index.hit_rate == 0.0
        index.single_source(0)
        assert index.hit_rate == 0.5
        assert index.num_cached == 1

    def test_cached_query_is_deterministic(self, toy):
        index = WalkIndex(toy, c=TOY_DECAY, eps_a=0.1, seed=4)
        first = index.single_source(0)
        second = index.single_source(0)
        np.testing.assert_array_equal(first.scores, second.scores)

    def test_cached_query_skips_sampling(self, tiny_wiki):
        index = WalkIndex(tiny_wiki, eps_a=0.15, delta=0.1, seed=5)
        index.single_source(10)
        rng_state_before = index.engine._rng.bit_generator.state
        index.single_source(10)  # cache hit: no walk sampling -> RNG untouched
        assert index.engine._rng.bit_generator.state == rng_state_before
        assert index._hits == 1

    def test_warm_prepopulates(self, toy):
        index = WalkIndex(toy, c=TOY_DECAY, eps_a=0.1, seed=6)
        index.warm([0, 1, 2])
        assert index.num_cached == 3
        index.single_source(1)
        assert index.hit_rate > 0.0

    def test_topk(self, toy, toy_truth):
        index = WalkIndex(toy, c=TOY_DECAY, eps_a=0.02, delta=0.01, seed=7)
        top = index.topk(0, 3)
        assert top.nodes[0] == 3  # d per Table 2
        with pytest.raises(QueryError):
            index.topk(0, 0)

    def test_method_label(self, toy):
        result = WalkIndex(toy, c=TOY_DECAY, eps_a=0.1, seed=8).single_source(0)
        assert result.method == "probesim-walkindex"


class TestInvalidation:
    def test_update_evicts_touched_trees(self, toy):
        graph = toy.copy()
        index = WalkIndex(graph, c=TOY_DECAY, eps_a=0.1, seed=9)
        index.single_source(0)  # walks from a pass through b (its in-edge)
        assert index.num_cached == 1
        # a's walks visit node b with overwhelming probability; an update
        # targeting b must evict the cached tree for query 0
        graph.add_edge(5, 1)
        index.apply_update(EdgeUpdate("insert", 5, 1))
        assert index.num_cached == 0

    def test_update_keeps_untouched_trees(self):
        from repro.graph import DiGraph

        # two disconnected 2-cycles: updates in one cannot touch the other
        g = DiGraph.from_edges([(0, 1), (1, 0), (2, 3), (3, 2)])
        g.add_node()  # node 4, isolated source for the new edge
        index = WalkIndex(g, c=0.6, eps_a=0.2, seed=10)
        index.single_source(0)
        g.add_edge(4, 2)
        index.apply_update(EdgeUpdate("insert", 4, 2))
        assert index.num_cached == 1  # query-0 walks never visit node 2

    def test_post_update_queries_are_correct(self, toy):
        from repro.eval.ground_truth import compute_ground_truth

        graph = toy.copy()
        index = WalkIndex(graph, c=TOY_DECAY, eps_a=0.05, delta=0.01, seed=11)
        index.single_source(0)
        graph.remove_edge(4, 1)  # e -> b
        index.apply_update(EdgeUpdate("delete", 4, 1))
        truth = compute_ground_truth(graph, c=TOY_DECAY, iterations=80)
        result = index.single_source(0)
        assert abs_error_max(result.scores, truth.single_source(0), 0) <= 0.05

    def test_invalidate_all(self, toy):
        index = WalkIndex(toy, c=TOY_DECAY, eps_a=0.1, seed=12)
        index.warm([0, 1])
        index.invalidate_all()
        assert index.num_cached == 0

    def test_index_bytes_grows_with_cache(self, toy):
        index = WalkIndex(toy, c=TOY_DECAY, eps_a=0.1, seed=13)
        empty = index.index_bytes()
        index.warm([0, 1, 2, 3])
        assert index.index_bytes() > empty

    def test_payload_bytes_counts_tree_nodes(self, toy):
        index = WalkIndex(toy, c=TOY_DECAY, eps_a=0.1, seed=13)
        assert index.payload_bytes() == 0
        index.warm([0])
        trie_bytes = sum(
            array.nbytes
            for level in index._tries[0].levels
            for array in (level.nodes, level.parents, level.weights)
        )
        assert trie_bytes > 0
        assert index.payload_bytes() >= trie_bytes
        assert index.payload_bytes() < index.index_bytes()  # no object headers

    def test_repr(self, toy):
        assert "WalkIndex" in repr(WalkIndex(toy, c=TOY_DECAY, eps_a=0.1, seed=14))


def _trie_nodes(trie) -> set[int]:
    """Every graph node a cached trie's walks visit."""
    return {trie.root}.union(*(level.nodes.tolist() for level in trie.levels))


class TestMaintenanceCost:
    """Update maintenance touches only what the updates affect."""

    CONFIG = dict(eps_a=0.15, delta=0.1, num_walks=100)

    def test_evictions_keep_the_incidence_map_exact(self, tiny_wiki):
        """After update bursts evict cached tries, the node -> query map
        holds exactly the surviving tries' nodes, none with an empty set."""
        graph = tiny_wiki.copy()
        index = WalkIndex(graph, seed=21, eps_a=0.15, delta=0.1, num_walks=20)
        index.warm(range(50))
        sampler = MutationSampler(graph, seed=3, copy=False)
        for _ in range(3):
            cached = index.num_cached
            index.apply_updates(sampler.sample_many(2))
            assert 0 < index.num_cached < cached
            expected = set().union(*(_trie_nodes(t) for t in index._tries.values()))
            assert set(index._touched) == expected
            assert all(index._touched.values())

    def test_update_burst_does_not_rebuild_the_csr(self, tiny_wiki, monkeypatch):
        """A burst marks the engine stale; the next query re-snapshots once."""
        graph = tiny_wiki.copy()
        index = WalkIndex(graph, seed=22, **self.CONFIG)
        index.warm([1, 2, 3])
        rebuilds = []
        as_csr = engine_module.as_csr
        monkeypatch.setattr(
            engine_module, "as_csr", lambda g: rebuilds.append(g) or as_csr(g)
        )
        sampler = MutationSampler(graph, seed=4, copy=False)
        index.apply_updates(sampler.sample_many(10))
        assert rebuilds == []
        index.single_source(7)
        index.single_source(8)
        assert len(rebuilds) == 1

    def test_first_query_after_burst_matches_a_fresh_index(self, tiny_wiki):
        graph = tiny_wiki.copy()
        index = WalkIndex(graph, seed=23, **self.CONFIG)
        index.warm([1, 2, 3])
        sampler = MutationSampler(graph, seed=5, copy=False)
        index.apply_updates(sampler.sample_many(10))
        fresh = WalkIndex(graph.copy(), seed=23, **self.CONFIG)
        for query in (7, 1):
            np.testing.assert_array_equal(
                index.single_source(query).scores, fresh.single_source(query).scores
            )
