"""Unit tests for Algorithm 3's reverse-reachability tree, built as a WalkTrie."""

import numpy as np
import pytest

from repro.core.walk_trie import WalkTrie


def prefix_weights(trie: WalkTrie) -> dict[tuple[int, ...], int]:
    return {tuple(path): weight for path, weight in trie.iter_prefixes()}


class TestInsertion:
    def test_root_weight_counts_walks(self):
        trie = WalkTrie.from_walks([[0, 1], [0, 2], [0]])
        assert trie.num_walks == 3

    def test_shared_prefix_accumulates_weight(self):
        prefixes = prefix_weights(WalkTrie.from_walks([[0, 1, 2], [0, 1, 3]]))
        assert prefixes[(0, 1)] == 2
        assert prefixes[(0, 1, 2)] == 1
        assert prefixes[(0, 1, 3)] == 1

    def test_paper_figure3_example(self):
        """Figure 3: tree of (a,b,c) and (a,c,a), then insert (a,b,a)."""
        a, b, c = 0, 1, 2
        trie = WalkTrie.from_walks([[a, b, c], [a, c, a], [a, b, a]])
        prefixes = prefix_weights(trie)
        assert trie.num_walks == 3  # r1.weight = 3
        assert prefixes[(a, b)] == 2  # r2.weight = 2
        assert prefixes[(a, b, c)] == 1
        assert prefixes[(a, c)] == 1
        assert prefixes[(a, c, a)] == 1
        assert prefixes[(a, b, a)] == 1  # the new node r6

    def test_wrong_root_rejected(self):
        with pytest.raises(ValueError, match="share their start"):
            WalkTrie.from_walks([[0, 1], [1, 0]])

    def test_empty_walk_rejected(self):
        # an empty walk lacks the shared start node
        with pytest.raises(ValueError, match="share their start"):
            WalkTrie.from_walks([[0, 1], []])

    def test_singleton_walks_add_no_prefixes(self):
        trie = WalkTrie.from_walks([[4]])
        assert trie.num_tree_nodes == 0
        assert trie.num_walks == 1
        assert list(trie.iter_prefixes()) == []


class TestInvariants:
    def _random_walks(self, seed, count=200):
        rng = np.random.default_rng(seed)
        walks = []
        for _ in range(count):
            length = 1 + rng.geometric(0.35)
            walk = [0] + rng.integers(0, 6, size=length - 1).tolist()
            walks.append(walk)
        return walks

    def test_children_weights_bounded_by_parent(self):
        trie = WalkTrie.from_walks(self._random_walks(1))
        parent_weights = np.array([trie.num_walks])
        for level in trie.levels:
            child_totals = np.bincount(
                level.parents, weights=level.weights, minlength=len(parent_weights)
            )
            assert np.all(child_totals <= parent_weights)
            parent_weights = level.weights

    def test_prefix_weights_equal_walk_prefix_counts(self):
        walks = self._random_walks(2)
        for path, weight in WalkTrie.from_walks(walks).iter_prefixes():
            expected = sum(
                1 for walk in walks if tuple(walk[: len(path)]) == tuple(path)
            )
            assert weight == expected

    def test_every_walk_prefix_is_in_tree(self):
        walks = self._random_walks(3, count=50)
        prefixes = set(prefix_weights(WalkTrie.from_walks(walks)))
        for walk in walks:
            for i in range(2, len(walk) + 1):
                assert tuple(walk[:i]) in prefixes

    def test_max_depth(self):
        assert WalkTrie.from_walks([[0, 1, 2, 3, 4], [0, 1]]).max_depth == 5

    def test_max_depth_bare_root(self):
        assert WalkTrie.from_walks([[0]]).max_depth == 1

    def test_from_walks_requires_nonempty(self):
        with pytest.raises(ValueError, match="at least one walk"):
            WalkTrie.from_walks([])

    def test_repr(self):
        assert "walks=2" in repr(WalkTrie.from_walks([[0, 1], [0, 2]]))
