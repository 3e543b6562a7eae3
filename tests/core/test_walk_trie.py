"""Integer artifacts of the prefix trie: walk arrays and multiplicities.

The array sampler (:func:`~repro.core.walks.sample_walk_arrays`) and the
list sampler (:func:`~repro.core.walks.sample_walk_batch`) draw the same RNG
stream in the same order, and :class:`~repro.core.walk_trie.WalkTrie` holds
exactly the walk batch's distinct prefixes with their multiplicities.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.walk_trie import WalkTrie
from repro.core.walks import sample_walk_arrays, sample_walk_batch


class TestWalkAndTrieArtifacts:
    """Fixed-seed walk sets and trie multiplicities are bit-identical."""

    def test_fixed_seed_walks_identical_across_samplers(self, tiny_wiki_csr):
        r1 = np.random.default_rng(97)
        r2 = np.random.default_rng(97)
        walks = sample_walk_batch(tiny_wiki_csr, 11, 400, 0.7, r1, 9)
        nodes, lengths = sample_walk_arrays(tiny_wiki_csr, 11, 400, 0.7, r2, 9)
        assert [nodes[i, : lengths[i]].tolist() for i in range(400)] == walks
        # the padding never leaks valid node ids
        for i in range(400):
            assert np.all(nodes[i, lengths[i]:] == -1)

    def test_trie_multiplicities_match_reachability_tree(self, tiny_wiki_csr):
        rng = np.random.default_rng(3)
        walks = sample_walk_batch(tiny_wiki_csr, 5, 300, 0.7, rng, 7)
        expected = Counter(
            tuple(walk[:i]) for walk in walks for i in range(2, len(walk) + 1)
        )
        trie = WalkTrie.from_walks(walks)
        assert trie.num_walks == 300
        assert trie.num_tree_nodes == len(expected)
        assert trie.max_depth == max(len(walk) for walk in walks)
        trie_prefixes = {tuple(p): w for p, w in trie.iter_prefixes()}
        assert trie_prefixes == dict(expected)

    def test_trie_rejects_mixed_roots_and_empty_batches(self):
        with pytest.raises(ValueError, match="share their start"):
            WalkTrie.from_walks([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="at least one walk"):
            WalkTrie.from_walks([])
