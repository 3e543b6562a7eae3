"""Tests for the ProbeSim engine: every strategy against exact ground truth,
the Theorem 1/2 accuracy guarantee, dynamic refresh, and diagnostics."""

import numpy as np
import pytest

from repro.core.config import STRATEGIES, ProbeSimConfig
from repro.core.engine import ProbeSim
from repro.core.walk_trie import WalkTrie
from repro.datasets import TOY_DECAY
from repro.errors import QueryError
from repro.eval.metrics import abs_error_max


class TestAccuracyGuarantee:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_within_eps_on_toy(self, toy, toy_truth, strategy):
        engine = ProbeSim(
            toy, c=TOY_DECAY, eps_a=0.05, delta=0.01, strategy=strategy, seed=99
        )
        for query in range(toy.num_nodes):
            result = engine.single_source(query)
            truth = toy_truth.single_source(query)
            assert abs_error_max(result.scores, truth, query) <= 0.05

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_within_eps_on_tiny_wiki(self, tiny_wiki, tiny_wiki_truth, strategy):
        engine = ProbeSim(
            tiny_wiki, c=0.6, eps_a=0.1, delta=0.05, strategy=strategy, seed=4
        )
        for query in (10, 50):
            result = engine.single_source(query)
            truth = tiny_wiki_truth.single_source(query)
            assert abs_error_max(result.scores, truth, query) <= 0.1

    def test_basic_and_batch_agree_exactly_with_same_walks(self, toy):
        """With identical seeds the walk sets coincide, and batch probing is a
        pure dedup of basic probing — estimates must match to fp error.

        The batch strategy probes per prefix, pruning each probe
        individually, which is what makes dedup bit-compatible with
        per-walk probing under Pruning rule 2.  (``strategy="native"`` never
        prunes scores; its link to the loop is the loop-oracle suite in
        tests/core/test_native_engine.py.)"""
        basic = ProbeSim(
            toy, c=TOY_DECAY, eps_a=0.1, strategy="basic", seed=123, num_walks=500
        ).single_source(0)
        batch = ProbeSim(
            toy, c=TOY_DECAY, eps_a=0.1, strategy="batch", seed=123, num_walks=500,
        ).single_source(0)
        np.testing.assert_allclose(basic.scores, batch.scores, atol=1e-10)

    def test_compensation_shifts_scores_up(self, toy):
        plain = ProbeSim(
            toy, c=TOY_DECAY, eps_a=0.1, seed=5, num_walks=300
        ).single_source(0)
        compensated = ProbeSim(
            toy, c=TOY_DECAY, eps_a=0.1, seed=5, num_walks=300,
            compensate_truncation=True,
        ).single_source(0)
        shift = ProbeSimConfig(c=TOY_DECAY, eps_a=0.1).budget.eps_t / 2
        others = [v for v in range(8) if v != 0]
        np.testing.assert_allclose(
            compensated.scores[others], plain.scores[others] + shift, atol=1e-12
        )
        assert compensated.score(0) == 1.0


class TestResultShape:
    def test_query_scores_one(self, toy):
        result = ProbeSim(toy, c=TOY_DECAY, eps_a=0.2, seed=1).single_source(3)
        assert result.score(3) == 1.0

    def test_scores_in_unit_interval(self, tiny_wiki):
        result = ProbeSim(tiny_wiki, eps_a=0.15, delta=0.1, seed=2).single_source(7)
        assert result.scores.min() >= 0.0
        assert result.scores.max() <= 1.0 + 1e-9

    def test_topk_is_sorted_prefix_of_single_source(self, tiny_wiki):
        engine = ProbeSim(tiny_wiki, eps_a=0.15, delta=0.1, seed=3)
        top = engine.topk(7, 10)
        assert top.k == 10
        assert all(top.scores[i] >= top.scores[i + 1] for i in range(9))
        assert 7 not in top.nodes.tolist()

    def test_method_label_carries_strategy(self, toy):
        result = ProbeSim(toy, c=TOY_DECAY, eps_a=0.2, strategy="basic", seed=1
                          ).single_source(0)
        assert result.method == "probesim-basic"

    def test_num_walks_matches_config(self, toy):
        engine = ProbeSim(toy, c=TOY_DECAY, eps_a=0.2, seed=1, num_walks=77)
        assert engine.single_source(0).num_walks == 77

    def test_deterministic_given_seed(self, tiny_wiki):
        a = ProbeSim(tiny_wiki, eps_a=0.2, delta=0.1, seed=55).single_source(9)
        b = ProbeSim(tiny_wiki, eps_a=0.2, delta=0.1, seed=55).single_source(9)
        np.testing.assert_array_equal(a.scores, b.scores)


class TestValidation:
    def test_bad_query_node(self, toy):
        engine = ProbeSim(toy, c=TOY_DECAY, eps_a=0.2, seed=1)
        with pytest.raises(QueryError):
            engine.single_source(100)
        with pytest.raises(QueryError):
            engine.single_source(-1)
        with pytest.raises(QueryError):
            engine.single_source("a")

    def test_bad_k(self, toy):
        with pytest.raises(QueryError):
            ProbeSim(toy, c=TOY_DECAY, eps_a=0.2, seed=1).topk(0, 0)

    def test_config_and_overrides_compose(self, toy):
        cfg = ProbeSimConfig(eps_a=0.2, strategy="basic")
        engine = ProbeSim(toy, config=cfg, strategy="batch")
        assert engine.config.strategy == "batch"
        assert engine.config.eps_a == 0.2

    def test_accepts_csr_input(self, toy_csr):
        engine = ProbeSim(toy_csr, c=TOY_DECAY, eps_a=0.2, seed=1)
        assert engine.single_source(0).score(0) == 1.0


class TestDynamicRefresh:
    def test_refresh_picks_up_mutations(self, toy, toy_truth):
        graph = toy.copy()
        engine = ProbeSim(graph, c=TOY_DECAY, eps_a=0.05, delta=0.01, seed=8)
        before = engine.single_source(0)
        # removing b's in-edge from e changes s(a, b) materially
        graph.remove_edge(4, 1)
        engine.sync()
        after = engine.single_source(0)
        from repro.eval.ground_truth import compute_ground_truth

        new_truth = compute_ground_truth(graph, c=TOY_DECAY, iterations=80)
        assert abs_error_max(after.scores, new_truth.single_source(0), 0) <= 0.05
        # and the answer genuinely moved
        assert not np.allclose(before.scores, after.scores, atol=1e-3)

    def test_snapshot_isolated_without_refresh(self, toy):
        graph = toy.copy()
        engine = ProbeSim(graph, c=TOY_DECAY, eps_a=0.2, seed=8)
        m_before = engine.graph.num_edges
        graph.remove_edge(4, 1)
        assert engine.graph.num_edges == m_before  # stale until sync
        engine.sync()
        assert engine.graph.num_edges == m_before - 1


class TestDiagnostics:
    def test_stats_populated(self, tiny_wiki):
        engine = ProbeSim(tiny_wiki, eps_a=0.15, delta=0.1, strategy="hybrid", seed=6)
        engine.single_source(11)
        stats = engine.last_stats
        assert stats.num_walks > 0
        assert stats.num_probes > 0
        assert stats.num_tree_nodes > 0
        assert stats.elapsed > 0
        assert stats.mean_walk_length >= 1.0

    def test_batch_probes_fewer_than_basic(self, tiny_wiki):
        basic = ProbeSim(
            tiny_wiki, eps_a=0.15, delta=0.1, strategy="basic", seed=7, num_walks=800
        )
        basic.single_source(11)
        batch = ProbeSim(
            tiny_wiki, eps_a=0.15, delta=0.1, strategy="native", seed=7, num_walks=800
        )
        batch.single_source(11)
        assert batch.last_stats.num_probes < basic.last_stats.num_probes

    def test_hybrid_switch_triggers_on_low_constant(self, tiny_wiki, tiny_wiki_truth):
        engine = ProbeSim(
            tiny_wiki, eps_a=0.1, delta=0.1, strategy="hybrid", seed=9,
            hybrid_switch_constant=1e-6, num_walks=400,
        )
        result = engine.single_source(11)
        assert engine.last_stats.num_hybrid_switches > 0
        # accuracy must survive the switch (unbiased continuations)
        err = abs_error_max(result.scores, tiny_wiki_truth.single_source(11), 11)
        assert err <= 0.12  # eps_a + slack for the Bernoulli variance

    def test_estimate_from_tree_matches_batch(self, toy):
        """The public tree-probing hook used by WalkIndex must equal the
        batch strategy's estimate for the same tree (both probe per prefix,
        so they are bit-compatible under pruning)."""
        engine = ProbeSim(toy, c=TOY_DECAY, eps_a=0.1, strategy="batch",
                          seed=21, num_walks=300)
        result = engine.single_source(0)
        # rebuild the same walks by reusing the seed
        engine2 = ProbeSim(toy, c=TOY_DECAY, eps_a=0.1, strategy="batch",
                           seed=21, num_walks=300)
        from repro.core.engine import QueryStats

        stats = QueryStats()
        walks = engine2._sample_walks(0, stats)
        tree = WalkTrie.from_walks(walks)
        estimates = engine2.estimate_from_tree(tree, hybrid=False)
        estimates[0] = 1.0
        np.testing.assert_allclose(estimates, result.scores, atol=1e-12)

    def test_repr(self, toy):
        assert "ProbeSim" in repr(ProbeSim(toy, c=TOY_DECAY, eps_a=0.2))


class TestQuerySeeded:
    """With an integer seed, answers are pure functions of (config, graph,
    query), independent of call order and batch grouping — the contract the
    HTTP coalescer (repro.server.coalesce) relies on for bit-exact
    micro-batching."""

    @pytest.mark.parametrize("strategy", ["batch", "native"], ids=["loop", "native"])
    def test_grouping_invariant(self, tiny_wiki, strategy):
        kwargs = dict(
            c=0.6, eps_a=0.15, delta=0.1, strategy=strategy,
            seed=31, num_walks=200,
        )
        queries = [10, 50, 10, 3]
        engine = ProbeSim(tiny_wiki, **kwargs)
        singles = [engine.single_source(q).scores for q in queries]
        # one batch, reversed order, and pairwise splits must all agree bitwise
        for grouping in ([queries], [queries[::-1]], [queries[:2], queries[2:]]):
            fresh = ProbeSim(tiny_wiki, **kwargs)
            got = {}
            for group in grouping:
                for res in fresh.single_source_many(group):
                    got[res.query] = res.scores
            for q, expected in zip(queries, singles):
                np.testing.assert_array_equal(got[q], expected)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_call_order_invariant_all_strategies(self, toy, strategy):
        kwargs = dict(
            c=TOY_DECAY, eps_a=0.2, strategy=strategy, seed=5, num_walks=80,
        )
        forward = [ProbeSim(toy, **kwargs).single_source(q).scores for q in (0, 1, 2)]
        engine = ProbeSim(toy, **kwargs)
        backward = {q: engine.single_source(q).scores for q in (2, 1, 0)}
        for q, expected in zip((0, 1, 2), forward):
            np.testing.assert_array_equal(backward[q], expected)

    def test_numpy_integer_seed_matches_python_int(self, toy):
        kwargs = dict(c=TOY_DECAY, eps_a=0.2, strategy="hybrid", num_walks=80)
        numpy_seeded = ProbeSim(toy, seed=np.int64(5), **kwargs)
        numpy_seeded.single_source(1)
        plain = ProbeSim(toy, seed=5, **kwargs)
        np.testing.assert_array_equal(
            numpy_seeded.single_source(0).scores, plain.single_source(0).scores)

    def test_default_stream_still_sequential(self, toy):
        """The default stream is per query: repeating a query on the same
        instance, or asking a fresh one, gives identical bytes."""
        a = ProbeSim(toy, c=TOY_DECAY, eps_a=0.2, seed=11, num_walks=80)
        first = a.single_source(0).scores
        again = a.single_source(0).scores
        b = ProbeSim(toy, c=TOY_DECAY, eps_a=0.2, seed=11, num_walks=80)
        assert b.single_source(0).scores.tobytes() == first.tobytes()
        assert again.tobytes() == first.tobytes()
