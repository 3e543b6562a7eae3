"""Property-based tests for the reverse-reachability tree (a WalkTrie)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.walk_trie import WalkTrie


@st.composite
def walk_batches(draw):
    count = draw(st.integers(min_value=1, max_value=60))
    walks = []
    for _ in range(count):
        tail = draw(
            st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=6)
        )
        walks.append([0] + tail)
    return walks


class TestTreeProperties:
    @given(walk_batches())
    @settings(max_examples=120, deadline=None)
    def test_weights_equal_prefix_multiplicities(self, walks):
        trie = WalkTrie.from_walks(walks)
        assert trie.num_walks == len(walks)
        for path, weight in trie.iter_prefixes():
            count = sum(1 for w in walks if tuple(w[: len(path)]) == tuple(path))
            assert weight == count

    @given(walk_batches())
    @settings(max_examples=120, deadline=None)
    def test_children_weights_sum_at_most_parent(self, walks):
        trie = WalkTrie.from_walks(walks)
        parent_weights = np.array([trie.num_walks])  # the root
        for level in trie.levels:
            child_sums = np.bincount(
                level.parents, weights=level.weights, minlength=len(parent_weights)
            )
            assert np.all(child_sums <= parent_weights)
            parent_weights = level.weights

    @given(walk_batches())
    @settings(max_examples=100, deadline=None)
    def test_prefix_set_is_exactly_all_walk_prefixes(self, walks):
        trie = WalkTrie.from_walks(walks)
        expected = {
            tuple(w[:i]) for w in walks for i in range(2, len(w) + 1)
        }
        actual = {tuple(p) for p, _ in trie.iter_prefixes()}
        assert actual == expected

    @given(walk_batches())
    @settings(max_examples=100, deadline=None)
    def test_insertion_order_irrelevant(self, walks):
        forward = WalkTrie.from_walks(walks)
        backward = WalkTrie.from_walks(list(reversed(walks)))
        assert dict(
            (tuple(p), w) for p, w in forward.iter_prefixes()
        ) == dict((tuple(p), w) for p, w in backward.iter_prefixes())

    @given(walk_batches())
    @settings(max_examples=80, deadline=None)
    def test_depth_matches_longest_walk(self, walks):
        trie = WalkTrie.from_walks(walks)
        assert trie.max_depth == max(len(w) for w in walks)
