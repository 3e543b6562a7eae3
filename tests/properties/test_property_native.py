"""Property-based tests for the native engine's walk sampler and RNG.

Hypothesis drives random graphs and ``(seed, query)`` pairs through the
native sampler, pinning the structural invariants the sweep relies on:
walks start at the query and only ever step to CSR in-neighbours, padding
never leaks node ids, and walk streams are prefix-stable (growing the walk
budget extends the batch without rewriting earlier walks).  The padded
sampler is pinned to a scalar per-walk reference, and the one-pass trie
builder the engine runs (``sample_trie_levels``) to the two-pass
``WalkTrie.from_walk_arrays(*sample_walks(...))``, level for level.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ProbeSimConfig
from repro.core.native import fallback
from repro.core.native.rng import draw_keys, stream_base, uniform_array, walk_bases
from repro.core.walk_trie import WalkTrie
from repro.graph import CSRGraph, DiGraph

SQRT_C = 0.7
MAX_LEN = 7


@st.composite
def graph_and_stream(draw):
    """A random digraph plus one native (seed, query, walk-count) stream."""
    n = draw(st.integers(min_value=3, max_value=12))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, min_size=n, max_size=4 * n, unique=True))
    csr = CSRGraph.from_digraph(DiGraph.from_edges(edges, num_nodes=n))
    query = draw(st.integers(min_value=0, max_value=n - 1))
    count = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=2**62))
    return csr, query, seed, count


def sample(impl, csr, query, seed, count, max_len=MAX_LEN):
    bases = walk_bases(stream_base(seed, query), count)
    return impl.sample_walks(
        csr.in_indptr, csr.in_indices, csr.in_degrees,
        bases, query, SQRT_C, max_len,
    )


class TestWalkInvariants:
    @given(graph_and_stream())
    @settings(max_examples=120, deadline=None)
    def test_walks_never_leave_the_in_neighbour_sets(self, data):
        """Every sampled step lands in the CSR in-neighbour set of the
        previous node — the sampler can never fabricate an edge."""
        csr, query, seed, count = data
        nodes, lengths = sample(fallback, csr, query, seed, count)
        in_neighbours = [
            set(csr.in_indices[csr.in_indptr[v]:csr.in_indptr[v + 1]].tolist())
            for v in range(csr.num_nodes)
        ]
        for i in range(count):
            assert nodes[i, 0] == query
            assert 1 <= lengths[i] <= MAX_LEN
            for step in range(1, lengths[i]):
                assert int(nodes[i, step]) in in_neighbours[int(nodes[i, step - 1])]
            assert np.all(nodes[i, lengths[i]:] == -1)

    @given(graph_and_stream())
    @settings(max_examples=80, deadline=None)
    def test_walk_streams_are_prefix_stable(self, data):
        """Walk ``i`` depends only on ``(seed, query, i)``: growing the
        batch appends walks without changing the ones already drawn."""
        csr, query, seed, count = data
        nodes_small, lengths_small = sample(fallback, csr, query, seed, count)
        nodes_big, lengths_big = sample(fallback, csr, query, seed, count + 16)
        np.testing.assert_array_equal(lengths_big[:count], lengths_small)
        # the matrix is as wide as its longest walk; past that, only padding
        width = nodes_small.shape[1]
        np.testing.assert_array_equal(nodes_big[:count, :width], nodes_small)
        assert np.all(nodes_big[:count, width:] == -1)


#: walk truncations the samplers are compared at: the shortest two and the
#: default configuration's
MAX_LENS = (1, 2, ProbeSimConfig().walk_truncation())


def csr_with_loops(edges, n):
    """A CSR snapshot built from raw arrays, so self-loops survive
    (``DiGraph`` refuses them; the samplers must not care)."""
    e = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    by_target = e[np.lexsort((e[:, 0], e[:, 1]))]

    def indptr(col):
        return np.r_[0, np.cumsum(np.bincount(col, minlength=n))].astype(np.int64)

    return CSRGraph(n, indptr(e[:, 0]), e[:, 1].astype(np.int32),
                    indptr(by_target[:, 1]), by_target[:, 0].astype(np.int32))


@st.composite
def sampler_case(draw):
    """A small digraph (self-loops and in-degree-0 nodes allowed) plus one
    sampler call: query, seed, walk count, sqrt_c and truncation."""
    n = draw(st.integers(min_value=1, max_value=10))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n, unique=True))
    csr = csr_with_loops(edges, n)
    query = draw(node)
    count = draw(st.sampled_from([1, 2, 7, 40]))
    seed = draw(st.integers(min_value=0, max_value=2**62))
    sqrt_c = draw(st.sampled_from([0.3, 0.7, 0.95]))
    max_len = draw(st.sampled_from(MAX_LENS))
    return csr, query, seed, count, sqrt_c, max_len


def sampler_args(csr, query, seed, count, sqrt_c, max_len):
    bases = walk_bases(stream_base(seed, query), count)
    return (csr.in_indptr, csr.in_indices, csr.in_degrees,
            bases, query, sqrt_c, max_len)


def scalar_walk(csr, base, query, sqrt_c, max_len):
    """One walk drawn step by step from its own keys, no vector lanes."""
    walk, cur = [query], query
    for step in range(max_len - 1):
        deg = int(csr.in_degrees[cur])
        if uniform_array(draw_keys(base, step, 0))[0] >= sqrt_c or deg == 0:
            break
        pick = int(uniform_array(draw_keys(base, step, 1))[0] * deg)
        cur = int(csr.in_indices[csr.in_indptr[cur] + min(pick, deg - 1)])
        walk.append(cur)
    return walk


def assert_same_levels(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for field in ("nodes", "parents", "weights"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype == np.int64
            np.testing.assert_array_equal(x, y)


class TestOnePassSampler:
    @given(sampler_case())
    @settings(max_examples=150, deadline=None)
    def test_padded_walks_match_scalar_reference(self, case):
        """Carrying only live lanes draws each walk exactly as a walk
        drawn alone from its own keys."""
        csr, query, seed, count, sqrt_c, max_len = case
        args = sampler_args(*case)
        nodes, lengths = fallback.sample_walks(*args)
        assert nodes.shape == (count, lengths.max())
        for i in range(count):
            walk = scalar_walk(csr, args[3][i:i + 1], query, sqrt_c, max_len)
            assert lengths[i] == len(walk)
            assert nodes[i, : len(walk)].tolist() == walk
            assert np.all(nodes[i, len(walk):] == -1)

    @given(sampler_case())
    @settings(max_examples=150, deadline=None)
    def test_trie_levels_equal_two_pass_trie(self, case):
        args = sampler_args(*case)
        two_pass = WalkTrie.from_walk_arrays(*fallback.sample_walks(*args))
        assert_same_levels(fallback.sample_trie_levels(*args), two_pass.levels)

    @pytest.mark.parametrize("max_len", MAX_LENS)
    @pytest.mark.parametrize("count", [1, 300])
    def test_query_without_in_edges_gives_no_levels(self, max_len, count):
        csr = csr_with_loops([(0, 1), (1, 1)], 3)
        for query in (0, 2):  # a source node and an isolated node
            args = sampler_args(csr, query, 5, count, 0.95, max_len)
            assert fallback.sample_trie_levels(*args) == []
            assert WalkTrie.from_walk_arrays(*fallback.sample_walks(*args)).levels == []

    @pytest.mark.parametrize("max_len", MAX_LENS)
    @pytest.mark.parametrize("count", [1, 300])
    def test_walks_stopping_on_in_degree_zero_nodes(self, max_len, count):
        """Query 0's in-neighbours are 1 (a source) and 2 (fed by 3, a
        source): at ``sqrt_c`` near one, walks end by reaching 1 or 3
        mid-walk, rarely by the stop draw."""
        csr = CSRGraph.from_digraph(
            DiGraph.from_edges([(1, 0), (2, 0), (3, 2)], num_nodes=4))
        args = sampler_args(csr, 0, 11, count, 0.999, max_len)
        levels = fallback.sample_trie_levels(*args)
        assert_same_levels(
            levels, WalkTrie.from_walk_arrays(*fallback.sample_walks(*args)).levels)
        if count > 1:
            assert len(levels) == min(max_len - 1, 2)
        if len(levels) == 2:
            assert levels[1].nodes.tolist() == [3]
            assert levels[1].parents.tolist() == [levels[0].nodes.tolist().index(2)]


class TestRNGInvariants:
    @given(st.integers(min_value=0, max_value=2**62),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=200, deadline=None)
    def test_stream_base_is_deterministic_and_query_separated(self, seed, query):
        assert stream_base(seed, query) == stream_base(seed, query)
        assert stream_base(seed, query) != stream_base(seed, query + 1)
        assert stream_base(seed, query) != stream_base(seed + 1, query)

    @given(st.integers(min_value=0, max_value=2**62))
    @settings(max_examples=100, deadline=None)
    def test_uniforms_live_in_the_half_open_unit_interval(self, seed):
        bases = walk_bases(stream_base(seed, 0), 64)
        u = uniform_array(bases)
        assert np.all(u >= 0.0)
        assert np.all(u < 1.0)
