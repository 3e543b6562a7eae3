"""Tests for the Power Method (exact SimRank, Eq. 10)."""

import networkx as nx
import numpy as np
import pytest

from repro.baselines.power import PowerMethod
from repro.datasets import TOY_DECAY, TOY_EXPECTED_SIMRANK_FROM_A, TOY_NODE_NAMES
from repro.datasets.toy import TOY_TABLE2_TOLERANCE
from repro.errors import ConfigurationError, QueryError
from repro.graph import DiGraph


class TestTable2:
    def test_reproduces_paper_table2(self, toy):
        """Table 2: s(a, *) at c = 0.25, to the table's printed precision."""
        S = PowerMethod(toy, c=TOY_DECAY).compute(iterations=60)
        for name, expected in TOY_EXPECTED_SIMRANK_FROM_A.items():
            got = float(S[0, TOY_NODE_NAMES.index(name)])
            assert got == pytest.approx(expected, abs=TOY_TABLE2_TOLERANCE), name


class TestFixedPointProperties:
    def test_satisfies_simrank_recursion(self, toy):
        """The converged matrix must satisfy Eq. 1 entrywise."""
        S = PowerMethod(toy, c=TOY_DECAY).compute(iterations=80)
        n = toy.num_nodes
        for u in range(n):
            for v in range(n):
                if u == v:
                    assert S[u, v] == 1.0
                    continue
                in_u, in_v = toy.in_neighbors(u), toy.in_neighbors(v)
                if not in_u or not in_v:
                    assert S[u, v] == 0.0
                    continue
                rhs = TOY_DECAY / (len(in_u) * len(in_v)) * sum(
                    S[x, y] for x in in_u for y in in_v
                )
                assert S[u, v] == pytest.approx(rhs, abs=1e-10)

    def test_symmetric(self, toy):
        S = PowerMethod(toy, c=0.6).compute(iterations=40)
        np.testing.assert_allclose(S, S.T, atol=1e-12)

    def test_range_and_diagonal(self, tiny_wiki):
        S = PowerMethod(tiny_wiki, c=0.6).compute(iterations=25)
        assert np.all(S >= 0.0)
        assert np.all(S <= 1.0 + 1e-12)
        np.testing.assert_array_equal(np.diag(S), np.ones(tiny_wiki.num_nodes))

    def test_zero_in_degree_rows_are_zero(self):
        g = DiGraph.from_edges([(0, 1), (0, 2), (1, 2)])
        S = PowerMethod(g, c=0.6).compute(iterations=30)
        # node 0 has no in-edges: similarity 0 with everything else
        assert S[0, 1] == 0.0
        assert S[0, 2] == 0.0

    def test_geometric_convergence(self, toy):
        pm = PowerMethod(toy, c=0.6)
        S10 = pm.compute(iterations=10).copy()
        S11 = PowerMethod(toy, c=0.6).compute(iterations=11)
        S40 = PowerMethod(toy, c=0.6).compute(iterations=40)
        # iteration error shrinks at least like c^t
        assert np.abs(S11 - S40).max() <= np.abs(S10 - S40).max() + 1e-15
        assert np.abs(S40 - PowerMethod(toy, c=0.6).compute(iterations=41)).max() < 1e-8


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx_simrank(self, seed):
        rng = np.random.default_rng(seed)
        n = 25
        edges = set()
        while len(edges) < 80:
            s, t = int(rng.integers(n)), int(rng.integers(n))
            if s != t:
                edges.add((s, t))
        g = DiGraph.from_edges(sorted(edges), num_nodes=n)
        S = PowerMethod(g, c=0.6).compute(iterations=80)
        G = nx.DiGraph(sorted(edges))
        G.add_nodes_from(range(n))
        nx_sim = nx.simrank_similarity(
            G, importance_factor=0.6, max_iterations=500, tolerance=1e-12
        )
        M = np.array([[nx_sim[u][v] for v in range(n)] for u in range(n)])
        np.testing.assert_allclose(S, M, atol=1e-6)


class TestInterface:
    def test_single_source_packaging(self, toy, toy_truth):
        result = PowerMethod(toy, c=TOY_DECAY).single_source(0)
        assert result.method == "power-method"
        np.testing.assert_allclose(result.scores, toy_truth.single_source(0), atol=1e-9)

    def test_pair(self, toy):
        pm = PowerMethod(toy, c=TOY_DECAY)
        assert pm.pair(0, 0) == 1.0
        assert pm.pair(0, 3) == pytest.approx(0.131, abs=5e-4)
        for u, v in ((-1, 0), (0, toy.num_nodes), (True, 0)):
            with pytest.raises(QueryError):
                pm.pair(u, v)

    def test_matrix_cached(self, toy):
        pm = PowerMethod(toy, c=0.6)
        assert pm.matrix() is pm.matrix()

    def test_tol_early_exit(self, toy):
        pm = PowerMethod(toy, c=0.6)
        pm.compute(iterations=500, tol=1e-10)
        assert pm.num_iterations < 500

    def test_query_out_of_range(self, toy):
        with pytest.raises(QueryError):
            PowerMethod(toy).single_source(50)

    def test_size_cap(self):
        big = DiGraph(30_000)
        with pytest.raises(ConfigurationError):
            PowerMethod(big)

    def test_invalid_iterations(self, toy):
        with pytest.raises(ConfigurationError):
            PowerMethod(toy).compute(iterations=0)
