"""Adversarial graph structures: shapes that historically break SimRank
implementations (dangling nodes, hubs, bipartite parity, disconnection,
cycles).  Every method must stay correct (or fail loudly) on all of them."""

import numpy as np
import pytest

from repro import MonteCarlo, PowerMethod, ProbeSim, SLINGIndex, TSFIndex, TopSim
from repro.datasets import TOY_DECAY
from repro.eval.metrics import abs_error_max
from repro.graph import DiGraph


def _assert_all_methods_agree(graph, query, c=0.6, tol=0.05, seed=0):
    """Exact truth vs every approximate method on one graph/query."""
    truth = PowerMethod(graph, c=c).single_source(query).scores
    estimates = {
        "probesim": ProbeSim(graph, c=c, eps_a=tol, delta=0.01, seed=seed)
        .single_source(query).scores,
        "topsim": TopSim(graph, c=c, depth=8).single_source(query).scores,
        "sling": SLINGIndex(graph, c=c, theta=0.0, depth=60, d_mode="exact")
        .single_source(query).scores,
    }
    for name, scores in estimates.items():
        err = abs_error_max(scores, truth, query)
        assert err <= tol + 1e-6, f"{name} err={err}"
    return truth


class TestDanglingAndSources:
    def test_query_with_no_in_edges_scores_zero_everywhere(self):
        # a source node's sqrt-c walk stops immediately: s(u, v) = 0 for all v
        g = DiGraph.from_edges([(0, 1), (0, 2), (1, 2), (2, 1)])
        truth = _assert_all_methods_agree(g, 0)
        assert truth[1] == 0.0 and truth[2] == 0.0

    def test_sink_node_still_similar(self):
        # node 3 has out-degree 0 (sink) but in-edges: similarities exist
        g = DiGraph.from_edges([(0, 3), (1, 3), (0, 1), (1, 0), (2, 0), (2, 1)])
        truth = _assert_all_methods_agree(g, 3)
        assert truth[3] == 1.0

    def test_isolated_node(self):
        g = DiGraph.from_edges([(0, 1), (1, 0)], num_nodes=3)  # node 2 isolated
        truth = _assert_all_methods_agree(g, 0)
        assert truth[2] == 0.0


class TestParityAndCycles:
    def test_directed_cycle_all_zero(self):
        """On a directed 4-cycle every node has exactly one in-neighbour, so
        walks from different nodes move in deterministic lockstep at a fixed
        distance — they can never meet, and every similarity is exactly 0."""
        g = DiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        truth = _assert_all_methods_agree(g, 0, tol=0.05)
        assert truth[1] == 0.0
        assert truth[2] == 0.0
        assert truth[3] == 0.0

    def test_two_cycle(self):
        g = DiGraph.from_edges([(0, 1), (1, 0)])
        truth = _assert_all_methods_agree(g, 0)
        assert truth[1] == 0.0  # parity again: they never meet

    def test_self_similar_community(self):
        """Complete bipartite-ish: all of one side mutually similar."""
        left = [0, 1, 2]
        right = [3, 4]
        edges = [(a, b) for a in left for b in right]
        g = DiGraph.from_edges(edges)
        truth = _assert_all_methods_agree(g, 3)
        # 3 and 4 share in-neighbourhood {0,1,2}, but the left side has no
        # in-edges, so exactly s(3,4) = c/9 * (3*1 + 6*0) = c/3
        assert truth[4] == pytest.approx(0.6 / 3, abs=1e-9)


class TestHubs:
    def test_star_hub(self):
        """A hub with many low-in-degree out-neighbours: the shape that broke
        the naive 'probe scores sum to 1' assumption (DESIGN.md §6)."""
        n = 20
        edges = [(0, v) for v in range(1, n)] + [(v, 0) for v in range(1, n)]
        g = DiGraph.from_edges(edges)
        truth = _assert_all_methods_agree(g, 1, tol=0.06, seed=3)
        # all leaves share in-neighbourhood {0}: pairwise similarity = c
        for v in range(2, n):
            assert truth[v] == pytest.approx(0.6, abs=1e-9)

    def test_probesim_on_hub_with_randomized_probe(self):
        n = 20
        edges = [(0, v) for v in range(1, n)] + [(v, 0) for v in range(1, n)]
        g = DiGraph.from_edges(edges)
        truth = PowerMethod(g, c=0.6).single_source(1).scores
        result = ProbeSim(
            g, c=0.6, eps_a=0.1, delta=0.05, strategy="randomized", seed=4
        ).single_source(1)
        assert abs_error_max(result.scores, truth, 1) <= 0.1


class TestDisconnection:
    def test_components_have_zero_cross_similarity(self):
        g = DiGraph.from_edges([(0, 1), (1, 0), (2, 3), (3, 2)])
        truth = _assert_all_methods_agree(g, 0)
        assert truth[2] == 0.0 and truth[3] == 0.0

    def test_mc_and_tsf_respect_disconnection(self):
        g = DiGraph.from_edges([(0, 1), (1, 0), (2, 3), (3, 2)])
        mc = MonteCarlo(g, c=0.6, seed=5).single_source(0, num_walks=500)
        assert mc.scores[2] == 0.0 and mc.scores[3] == 0.0
        tsf = TSFIndex(g, c=0.6, rg=30, rq=3, seed=6).single_source(0)
        assert tsf.scores[2] == 0.0 and tsf.scores[3] == 0.0


class TestUndirectedToyDecay:
    def test_all_methods_on_toy_at_paper_decay(self, toy):
        _assert_all_methods_agree(toy, 0, c=TOY_DECAY, tol=0.05, seed=7)

    def test_all_methods_on_toy_at_c08(self, toy):
        # c = 0.8 is the other decay the SimRank literature uses
        _assert_all_methods_agree(toy, 0, c=0.8, tol=0.08, seed=8)


class TestNumericalEdges:
    def test_probesim_tiny_eps_does_not_overflow_walk_count(self, toy):
        engine = ProbeSim(toy, c=TOY_DECAY, eps_a=0.4, delta=0.4, seed=9)
        result = engine.single_source(0)
        assert result.num_walks >= 1

    def test_single_edge_graph(self):
        g = DiGraph.from_edges([(0, 1)])
        for method in (
            ProbeSim(g, eps_a=0.2, delta=0.1, seed=10),
            TopSim(g, depth=3),
            MonteCarlo(g, seed=11),
        ):
            if isinstance(method, MonteCarlo):
                result = method.single_source(1, num_walks=50)
            else:
                result = method.single_source(1)
            assert result.score(1) == 1.0
            assert result.scores[0] == 0.0  # node 0 has no in-edges

    def test_large_c_close_to_one(self, toy):
        """c -> 1 makes walks long; truncation must keep everything finite."""
        engine = ProbeSim(toy, c=0.95, eps_a=0.2, delta=0.1, seed=12, num_walks=200)
        result = engine.single_source(0)
        assert np.isfinite(result.scores).all()
        assert result.scores.max() <= 1.0 + 1e-9
