"""Integer artifacts of the prefix trie: walk arrays and multiplicities.

The one-pass trie sampler (:func:`~repro.core.native.fallback.sample_trie_levels`)
and the padded-walk sampler (:func:`~repro.core.native.fallback.sample_walks`)
draw the same counter-RNG walks, and :class:`~repro.core.walk_trie.WalkTrie`
holds exactly the walk batch's distinct prefixes with their multiplicities.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.native import fallback
from repro.core.native.rng import stream_base, walk_bases
from repro.core.walk_trie import WalkTrie


def sampler_args(csr, query, seed, count, sqrt_c, max_len):
    return (csr.in_indptr, csr.in_indices, csr.in_degrees,
            walk_bases(stream_base(seed, query), count), query, sqrt_c, max_len)


class TestWalkAndTrieArtifacts:
    """Fixed-seed walk sets and trie multiplicities are bit-identical."""

    def test_fixed_seed_walks_identical_across_samplers(self, tiny_wiki_csr):
        args = sampler_args(tiny_wiki_csr, 11, 97, 400, 0.7, 9)
        nodes, lengths = fallback.sample_walks(*args)
        walks = [nodes[i, : lengths[i]].tolist() for i in range(400)]
        one_pass = WalkTrie(11, 400, fallback.sample_trie_levels(*args))
        assert list(one_pass.iter_prefixes()) == list(
            WalkTrie.from_walks(walks).iter_prefixes())
        # the padding never leaks valid node ids
        for i in range(400):
            assert np.all(nodes[i, lengths[i]:] == -1)

    def test_trie_multiplicities_match_reachability_tree(self, tiny_wiki_csr):
        nodes, lengths = fallback.sample_walks(
            *sampler_args(tiny_wiki_csr, 5, 3, 300, 0.7, 7))
        walks = [nodes[i, : lengths[i]].tolist() for i in range(300)]
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
