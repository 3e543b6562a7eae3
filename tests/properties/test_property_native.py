"""Property-based tests for the native engine's walk sampler and RNG.

Hypothesis drives random graphs and ``(seed, query)`` pairs through the
native sampler, pinning the structural invariants the sweep relies on:
walks start at the query and only ever step to CSR in-neighbours, padding
never leaks node ids, and walk streams are prefix-stable (growing the walk
budget extends the batch without rewriting earlier walks).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.native import fallback
from repro.core.native.rng import stream_base, uniform_array, walk_bases
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
        np.testing.assert_array_equal(nodes_big[:count], nodes_small)


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
