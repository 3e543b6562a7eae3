"""Unit tests for the mutable DiGraph substrate."""

import pytest

from repro.errors import (
    DuplicateEdgeError,
    EdgeNotFoundError,
    GraphError,
    NodeNotFoundError,
)
from repro.graph import DiGraph


class TestConstruction:
    def test_empty_graph(self):
        g = DiGraph(0)
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_isolated_nodes(self):
        g = DiGraph(5)
        assert g.num_nodes == 5
        assert all(g.in_degree(v) == 0 for v in g.nodes())

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            DiGraph(-1)

    def test_from_edges_infers_node_count(self):
        g = DiGraph.from_edges([(0, 3), (2, 1)])
        assert g.num_nodes == 4
        assert g.num_edges == 2

    def test_from_edges_explicit_node_count(self):
        g = DiGraph.from_edges([(0, 1)], num_nodes=10)
        assert g.num_nodes == 10

    def test_from_edges_empty(self):
        g = DiGraph.from_edges([])
        assert g.num_nodes == 0

    def test_from_edges_rejects_duplicates(self):
        with pytest.raises(DuplicateEdgeError):
            DiGraph.from_edges([(0, 1), (0, 1)])

    def test_add_node_returns_new_id(self):
        g = DiGraph(2)
        assert g.add_node() == 2
        assert g.num_nodes == 3


class TestEdges:
    def test_add_edge_updates_both_directions(self):
        g = DiGraph(3)
        g.add_edge(0, 2)
        assert g.out_neighbors(0) == [2]
        assert g.in_neighbors(2) == [0]
        assert g.has_edge(0, 2)
        assert not g.has_edge(2, 0)

    def test_add_duplicate_edge_raises(self):
        g = DiGraph(2)
        g.add_edge(0, 1)
        with pytest.raises(DuplicateEdgeError):
            g.add_edge(0, 1)

    def test_self_loop_rejected(self):
        g = DiGraph(2)
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_from_edges_rejects_self_loops(self):
        with pytest.raises(GraphError, match="self-loops"):
            DiGraph.from_edges([(0, 0), (0, 1)])

    def test_unknown_endpoint_rejected(self):
        g = DiGraph(2)
        with pytest.raises(NodeNotFoundError):
            g.add_edge(0, 5)
        with pytest.raises(NodeNotFoundError):
            g.add_edge(-1, 0)

    def test_remove_edge(self):
        g = DiGraph.from_edges([(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.num_edges == 1
        assert g.in_neighbors(1) == []

    def test_remove_absent_edge_raises(self):
        g = DiGraph(3)
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0, 1)

    def test_remove_then_readd(self):
        g = DiGraph.from_edges([(0, 1)])
        g.remove_edge(0, 1)
        g.add_edge(0, 1)
        assert g.has_edge(0, 1)
        assert g.num_edges == 1

    def test_edges_iteration_matches_degrees(self):
        g = DiGraph.from_edges([(0, 1), (0, 2), (2, 1), (1, 0)])
        edges = sorted(g.edges())
        assert edges == [(0, 1), (0, 2), (1, 0), (2, 1)]
        assert g.out_degree(0) == 2
        assert g.in_degree(1) == 2


class TestDegreesAndSampling:
    def test_degrees(self, toy):
        # in-degrees pinned by the paper's worked example (DESIGN.md §6)
        expected_in = {0: 2, 1: 2, 2: 3, 3: 1, 4: 2, 5: 4, 6: 3, 7: 3}
        for node, deg in expected_in.items():
            assert toy.in_degree(node) == deg

    def test_random_in_neighbor_uniform(self, rng):
        g = DiGraph.from_edges([(1, 0), (2, 0), (3, 0)])
        counts = {1: 0, 2: 0, 3: 0}
        for _ in range(3000):
            counts[g.random_in_neighbor(0, rng)] += 1
        for count in counts.values():
            assert 800 < count < 1200  # ~1000 each; 6-sigma band

    def test_random_in_neighbor_none_for_source(self, rng):
        g = DiGraph.from_edges([(0, 1)])
        assert g.random_in_neighbor(0, rng) is None

    def test_degree_of_unknown_node_raises(self):
        g = DiGraph(1)
        with pytest.raises(NodeNotFoundError):
            g.in_degree(3)


class TestCopyReverseEquality:
    def test_copy_is_independent(self):
        g = DiGraph.from_edges([(0, 1)])
        clone = g.copy()
        clone.add_edge(1, 0)
        assert not g.has_edge(1, 0)
        assert clone.has_edge(1, 0)

    def test_reversed_flips_edges(self, toy):
        rev = toy.reversed()
        assert rev.num_edges == toy.num_edges
        for s, t in toy.edges():
            assert rev.has_edge(t, s)
        assert rev.in_degree(1) == toy.out_degree(1)

    def test_double_reverse_is_identity(self, toy):
        assert toy.reversed().reversed() == toy

    def test_equality(self):
        a = DiGraph.from_edges([(0, 1), (1, 2)])
        b = DiGraph.from_edges([(1, 2), (0, 1)])
        assert a == b
        b.add_edge(2, 0)
        assert a != b

    def test_equality_different_type(self):
        assert DiGraph(1) != "not a graph"

    def test_contains(self):
        g = DiGraph(3)
        assert 2 in g
        assert 3 not in g
        assert "x" not in g

    def test_repr(self):
        assert "num_nodes=2" in repr(DiGraph(2))
