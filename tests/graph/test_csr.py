"""Unit tests for the frozen CSR snapshot and its sparse operators."""

import numpy as np
import pytest

from repro.errors import GraphError, NodeNotFoundError
from repro.graph import CSRGraph, DiGraph
from repro.graph.csr import as_csr


class TestRoundTrip:
    def test_adjacency_matches_digraph(self, toy, toy_csr):
        for node in toy.nodes():
            assert sorted(toy_csr.out_neighbors(node).tolist()) == sorted(
                toy.out_neighbors(node)
            )
            assert sorted(toy_csr.in_neighbors(node).tolist()) == sorted(
                toy.in_neighbors(node)
            )

    def test_degrees_match(self, toy, toy_csr):
        for node in toy.nodes():
            assert toy_csr.in_degree(node) == toy.in_degree(node)
            assert toy_csr.out_degree(node) == toy.out_degree(node)

    def test_to_digraph_round_trip(self, toy, toy_csr):
        assert toy_csr.to_digraph() == toy

    def test_to_digraph_keeps_insertion_order(self):
        """Out-lists in CSR order, in-lists by ascending source: the graph
        that inserting the edges source by source builds."""
        csr = CSRGraph.from_digraph(
            DiGraph.from_edges([(2, 0), (0, 3), (2, 3), (0, 1), (1, 3), (3, 0)])
        )
        graph = csr.to_digraph()
        reference = DiGraph(csr.num_nodes)
        for source, target in csr.edges():
            reference.add_edge(source, int(target))
        for node in range(csr.num_nodes):
            assert graph.out_neighbors(node) == reference.out_neighbors(node)
            assert graph.in_neighbors(node) == reference.in_neighbors(node)
        assert graph.in_neighbors(3) == [0, 1, 2]
        graph.add_edge(1, 0)  # the thawed graph is mutable
        assert graph.num_edges == csr.num_edges + 1

    @pytest.mark.parametrize("targets", [[1, 1], [0, 1], [1, 5]])
    def test_to_digraph_rejects_invalid_adjacency(self, targets):
        """Duplicate edges, self-loops and out-of-range ids all raise."""
        csr = CSRGraph(
            2,
            np.array([0, 2, 2], dtype=np.int64),
            np.array(targets, dtype=np.int32),
            np.array([0, 0, 2], dtype=np.int64),
            np.array([0, 0], dtype=np.int32),
        )
        with pytest.raises(GraphError):
            csr.to_digraph()

    def test_edges_iteration(self, toy, toy_csr):
        assert sorted(toy_csr.edges()) == sorted(toy.edges())

    def test_from_edges_constructor(self):
        csr = CSRGraph.from_edges([(0, 1), (1, 2)])
        assert csr.num_nodes == 3
        assert csr.num_edges == 2

    def test_snapshot_is_frozen_after_mutation(self):
        g = DiGraph.from_edges([(0, 1)])
        csr = CSRGraph.from_digraph(g)
        g.add_edge(1, 0)
        assert csr.num_edges == 1
        assert not np.any(csr.in_neighbors(0))

    def test_arrays_read_only(self, toy_csr):
        with pytest.raises(ValueError):
            toy_csr.out_indices[0] = 99

    def test_empty_graph(self):
        csr = CSRGraph.from_digraph(DiGraph(4))
        assert csr.num_edges == 0
        assert csr.forward_operator.nnz == 0

    def test_node_bounds_checked(self, toy_csr):
        with pytest.raises(NodeNotFoundError):
            toy_csr.out_neighbors(100)


class TestOperators:
    def test_forward_operator_entries(self, toy, toy_csr):
        P_hat = toy_csr.forward_operator.toarray()
        for s, t in toy.edges():
            assert P_hat[s, t] == pytest.approx(1.0 / toy.in_degree(t))
        assert P_hat.sum() == pytest.approx(
            sum(1.0 / toy.in_degree(t) for _, t in toy.edges())
        )

    def test_transition_columns_stochastic(self, toy_csr):
        P = toy_csr.transition.toarray()
        col_sums = P.sum(axis=0)
        for node in range(toy_csr.num_nodes):
            if toy_csr.in_degree(node) > 0:
                assert col_sums[node] == pytest.approx(1.0)
            else:
                assert col_sums[node] == 0.0

    def test_backward_operator_is_transpose(self, toy_csr):
        fwd = toy_csr.forward_operator.toarray()
        bwd = toy_csr.backward_operator.toarray()
        np.testing.assert_allclose(bwd, fwd.T)

    def test_inv_in_degrees(self, toy, toy_csr):
        inv = toy_csr.inv_in_degrees
        for node in toy.nodes():
            deg = toy.in_degree(node)
            expected = 1.0 / deg if deg else 0.0
            assert inv[node] == pytest.approx(expected)


class TestSampling:
    def test_random_in_neighbor_valid(self, toy, toy_csr, rng):
        for _ in range(50):
            neighbor = toy_csr.random_in_neighbor(5, rng)
            assert neighbor in toy.in_neighbors(5)

    def test_random_in_neighbor_none(self, rng):
        csr = CSRGraph.from_edges([(0, 1)])
        assert csr.random_in_neighbor(0, rng) is None

    def test_sample_in_neighbors_vectorized(self, toy, toy_csr, rng):
        nodes = np.array([5, 5, 5, 0, 0], dtype=np.int64)
        sampled = toy_csr.sample_in_neighbors(nodes, rng)
        for node, neighbor in zip(nodes.tolist(), sampled.tolist()):
            assert neighbor in toy.in_neighbors(node)

    def test_sample_in_neighbors_dead_end(self, rng):
        csr = CSRGraph.from_edges([(0, 1)])
        sampled = csr.sample_in_neighbors(np.array([0, 1]), rng)
        assert sampled[0] == -1
        assert sampled[1] == 0

    def test_sample_in_neighbors_uniform(self, rng):
        csr = CSRGraph.from_edges([(1, 0), (2, 0), (3, 0)])
        sampled = csr.sample_in_neighbors(np.zeros(6000, dtype=np.int64), rng)
        counts = np.bincount(sampled, minlength=4)
        assert counts[0] == 0
        for neighbor in (1, 2, 3):
            assert 1700 < counts[neighbor] < 2300

    def test_sample_in_neighbors_empty_input(self, toy_csr, rng):
        out = toy_csr.sample_in_neighbors(np.empty(0, dtype=np.int64), rng)
        assert len(out) == 0


class TestAsCsr:
    def test_passthrough(self, toy_csr):
        assert as_csr(toy_csr) is toy_csr

    def test_converts_digraph(self, toy):
        assert isinstance(as_csr(toy), CSRGraph)

    def test_rejects_other_types(self):
        with pytest.raises(GraphError):
            as_csr([(0, 1)])

    def test_payload_bytes_positive(self, toy_csr):
        assert toy_csr.payload_bytes() > 0

    def test_repr(self, toy_csr):
        assert "CSRGraph" in repr(toy_csr)
