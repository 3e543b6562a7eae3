"""Cross-module integration tests: full query pipelines, method comparisons,
and the paper's qualitative claims in miniature."""

import numpy as np
import pytest

from repro import MonteCarlo, PowerMethod, ProbeSim, TSFIndex, TopSim
from repro.datasets import load_dataset
from repro.eval import (
    MethodSpec,
    compute_ground_truth,
    format_table,
    run_single_source,
    run_topk,
    sample_query_nodes,
)


@pytest.fixture(scope="module")
def small_world():
    graph = load_dataset("as", scale="tiny")
    truth = compute_ground_truth(graph, c=0.6, iterations=40)
    queries = sample_query_nodes(graph, 5, seed=17)
    return graph, truth, queries


class TestFigure4Pipeline:
    def test_single_source_comparison_runs(self, small_world):
        graph, truth, queries = small_world
        methods = [
            MethodSpec("probesim", lambda: ProbeSim(graph, eps_a=0.1, delta=0.1, seed=1)),
            MethodSpec("topsim-sm", lambda: TopSim(graph, depth=3)),
            MethodSpec(
                "trun-topsim-sm",
                lambda: TopSim(graph, depth=3, variant="truncated",
                               degree_threshold=30, eta=0.001),
            ),
            MethodSpec(
                "prio-topsim-sm",
                lambda: TopSim(graph, depth=3, variant="prioritized", priority_width=30),
            ),
            MethodSpec("tsf", lambda: TSFIndex(graph, rg=60, rq=8, seed=2)),
        ]
        outcomes = run_single_source(methods, queries, truth)
        by_name = {o.method: o for o in outcomes}
        # ProbeSim honours its error budget
        assert by_name["probesim"].mean_abs_error <= 0.1
        # TSF (no guarantee, overestimates) is the least accurate method
        assert by_name["tsf"].mean_abs_error > by_name["probesim"].mean_abs_error
        # rendering works
        table = format_table([o.as_row() for o in outcomes], title="figure-4")
        assert "probesim" in table

    def test_heuristic_variants_cheaper_than_full(self, small_world):
        graph, truth, queries = small_world
        full = TopSim(graph, depth=3)
        prio = TopSim(graph, depth=3, variant="prioritized", priority_width=10)
        n_full = len(full.enumerate_prefixes(queries[0]))
        n_prio = len(prio.enumerate_prefixes(queries[0]))
        assert n_prio <= n_full


class TestFigure57Pipeline:
    def test_topk_quality_ordering(self, small_world):
        graph, truth, queries = small_world
        methods = [
            MethodSpec("probesim", lambda: ProbeSim(graph, eps_a=0.05, delta=0.05, seed=3)),
            MethodSpec("tsf", lambda: TSFIndex(graph, rg=40, rq=4, seed=4)),
        ]
        outcomes = run_topk(methods, queries, truth, k=10)
        by_name = {o.method: o for o in outcomes}
        assert by_name["probesim"].mean_precision >= by_name["tsf"].mean_precision
        assert by_name["probesim"].mean_ndcg >= 0.9


class TestMonteCarloCrossValidation:
    def test_probesim_and_mc_agree(self, small_world):
        """Two structurally different estimators agreeing within their summed
        error budgets is strong evidence both implement Eq. 3 correctly."""
        graph, truth, queries = small_world
        query = queries[0]
        probesim = ProbeSim(graph, eps_a=0.05, delta=0.05, seed=5).single_source(query)
        mc = MonteCarlo(graph, c=0.6, seed=6).single_source(query, num_walks=3000)
        diff = np.abs(probesim.scores - mc.scores)
        diff[query] = 0.0
        assert diff.max() < 0.08

    def test_all_methods_find_the_same_top1(self, small_world):
        """On a node with a clear-cut most-similar neighbour, every method
        should agree on top-1."""
        graph, truth, _ = small_world
        # pick the query with the largest gap between top-1 and top-2
        best_query, best_gap = None, -1.0
        for q in sample_query_nodes(graph, 20, seed=8):
            row = truth.single_source(q)
            top = np.sort(row[np.arange(len(row)) != q])[::-1]
            gap = top[0] - top[1]
            if gap > best_gap:
                best_query, best_gap = q, gap
        assert best_gap > 0.05, "stand-in graph should have a clear top-1 somewhere"
        expected = int(truth.topk_nodes(best_query, 1)[0])
        assert ProbeSim(graph, eps_a=0.05, delta=0.05, seed=9).topk(
            best_query, 1
        ).nodes[0] == expected
        assert TopSim(graph, depth=4).topk(best_query, 1).nodes[0] == expected
        assert PowerMethod(graph, c=0.6).single_source(best_query).topk(1).nodes[0] == expected


class TestScalabilityShape:
    def test_probesim_handles_graph_too_big_for_power_method(self):
        """Table 4's qualitative point: the exact method is out of reach
        where ProbeSim still answers (here: the dense-matrix cap stands in
        for the paper's 96GB memory limit)."""
        from repro.errors import ConfigurationError
        from repro.graph import DiGraph

        # over the dense-matrix safety cap (n^2 floats): PowerMethod refuses
        over_cap = DiGraph.from_edges([(0, 1), (1, 0)], num_nodes=25_000)
        with pytest.raises(ConfigurationError):
            PowerMethod(over_cap)
        # a 12k-node stand-in is routine for ProbeSim
        big = load_dataset("it-2004", scale="small")
        result = ProbeSim(big, eps_a=0.2, delta=0.1, seed=10, num_walks=200).single_source(17)
        assert result.score(17) == 1.0
