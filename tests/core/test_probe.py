"""Tests for the deterministic PROBE algorithm.

The anchor is the paper's §3.2 running example on the toy graph: probing the
walk (a, b, a, b) must reproduce every printed intermediate and final score
exactly (as fractions, not just to the printed rounding).
"""

import numpy as np
import pytest

from repro.core.probe import probe_deterministic, probe_deterministic_python
from repro.core.walks import sample_sqrt_c_walk
from repro.datasets.toy import node_id
from repro.errors import QueryError
from repro.graph import CSRGraph, DiGraph

SQRT_C_TOY = 0.5  # the example uses c' = 0.25


def _walk(*names: str) -> list[int]:
    return [node_id(name) for name in names]


class TestPaperWorkedExample:
    """Every number printed in §3.2, verified as exact fractions."""

    def test_probe_abab_final_scores(self, toy):
        scores = probe_deterministic_python(toy, _walk("a", "b", "a", "b"), SQRT_C_TOY)
        expected = {
            node_id("b"): 1 / 96,     # paper prints 0.011
            node_id("c"): 7 / 216,    # paper prints 0.033
            node_id("e"): 11 / 288,   # paper prints 0.038
            node_id("f"): 11 / 576,   # paper prints 0.019
        }
        assert set(scores) == set(expected)
        for node, value in expected.items():
            assert scores[node] == pytest.approx(value, abs=1e-12)

    def test_probe_ab_scores(self, toy):
        # S2 = {(c, 0.167), (d, 0.5), (e, 0.25)}
        scores = probe_deterministic_python(toy, _walk("a", "b"), SQRT_C_TOY)
        assert scores == pytest.approx(
            {node_id("c"): 1 / 6, node_id("d"): 1 / 2, node_id("e"): 1 / 4}
        )

    def test_probe_aba_scores(self, toy):
        # S3 = {(f, 0.021), (g, 0.028), (h, 0.028)}
        scores = probe_deterministic_python(toy, _walk("a", "b", "a"), SQRT_C_TOY)
        assert scores == pytest.approx(
            {node_id("f"): 1 / 48, node_id("g"): 1 / 36, node_id("h"): 1 / 36}
        )

    def test_trial_estimate_sums_probes(self, toy):
        # §3.2: summing S2-S4 gives s~(a, c) = 0.2, s~(a, d) = 0.5, etc.
        walk = _walk("a", "b", "a", "b")
        total: dict[int, float] = {}
        for i in range(2, 5):
            for node, value in probe_deterministic_python(
                toy, walk[:i], SQRT_C_TOY
            ).items():
                total[node] = total.get(node, 0.0) + value
        # the paper prints sums of already-rounded probe scores, so the
        # comparison tolerance is the accumulated rounding (~1.5e-3).
        assert total[node_id("c")] == pytest.approx(0.2, abs=1.5e-3)
        assert total[node_id("d")] == pytest.approx(0.5)
        assert total[node_id("e")] == pytest.approx(0.2877, abs=1.5e-3)
        assert total[node_id("f")] == pytest.approx(0.04, abs=1.5e-3)
        assert total[node_id("g")] == pytest.approx(0.028, abs=1.5e-3)
        assert total[node_id("h")] == pytest.approx(0.028, abs=1.5e-3)
        assert total[node_id("b")] == pytest.approx(0.011, abs=1.5e-3)

    def test_pruning_example(self, toy):
        # §4.1: with eps_p = 0.05, c's subtree is pruned in iteration 1 of
        # the probe on (a, b, a, b): Score(c, 1) * (sqrt c)^2 = 0.042 < eps_p.
        pruned = probe_deterministic_python(
            toy, _walk("a", "b", "a", "b"), SQRT_C_TOY, eps_p=0.05
        )
        unpruned = probe_deterministic_python(
            toy, _walk("a", "b", "a", "b"), SQRT_C_TOY
        )
        # every pruned score must be <= its unpruned value (one-sided error)
        for node, value in pruned.items():
            assert value <= unpruned[node] + 1e-12


class TestFirstMeetingSemantics:
    def test_scores_are_first_meeting_probabilities(self, toy, rng):
        """Monte Carlo cross-check of Definition 4 (non-circular oracle).

        P(v, prefix) = Pr over sqrt-c walks W(v) that W(v) hits prefix[-1]
        at step len(prefix)-1 while avoiding the earlier prefix nodes at the
        matching steps.
        """
        prefix = _walk("a", "b", "a", "b")
        i = len(prefix)
        scores = probe_deterministic_python(toy, prefix, SQRT_C_TOY)
        trials = 60_000
        for name in "bcef":
            v = node_id(name)
            hits = 0
            for _ in range(trials):
                walk = sample_sqrt_c_walk(toy, v, SQRT_C_TOY, rng, max_length=i)
                if len(walk) < i:
                    continue
                # first-meeting: walk[j] must equal prefix[j] only at j = i-1
                if walk[i - 1] != prefix[i - 1]:
                    continue
                if any(walk[j] == prefix[j] for j in range(1, i - 1)):
                    continue
                hits += 1
            estimate = hits / trials
            assert estimate == pytest.approx(scores[v], abs=0.004)

    def test_avoidance_excludes_earlier_meetings(self, toy):
        # probing (a, b): a walk from d can only reach b at step 2 via b's
        # out-edge... d's only in-neighbour is b, so P(d, (a,b)) = sqrt_c / 1.
        scores = probe_deterministic_python(toy, _walk("a", "b"), SQRT_C_TOY)
        assert scores[node_id("d")] == pytest.approx(SQRT_C_TOY)

    def test_query_node_can_receive_score(self, toy):
        # nothing forbids v-walks meeting u's walk at a node that equals u
        # later on; only stepwise collisions with the prefix are excluded.
        scores = probe_deterministic_python(toy, _walk("a", "b", "a", "b"), SQRT_C_TOY)
        assert node_id("a") not in scores  # a happens to get zero here

    def test_scores_bounded_by_survival_probability(self, toy):
        """P(v, prefix) <= sqrt(c)^(i-1): the walk from v must survive i-1
        geometric stops to meet at step i."""
        for prefix in (_walk("a", "b"), _walk("a", "b", "a"), _walk("a", "c", "a"),
                       _walk("a", "b", "a", "b")):
            scores = probe_deterministic_python(toy, prefix, SQRT_C_TOY)
            bound = SQRT_C_TOY ** (len(prefix) - 1)
            for value in scores.values():
                assert 0.0 < value <= bound + 1e-12


class TestBackendsAgree:
    @pytest.mark.parametrize("eps_p", [0.0, 0.01, 0.05])
    def test_python_vs_vectorized_on_toy(self, toy, toy_csr, eps_p):
        rng = np.random.default_rng(77)
        for _ in range(60):
            walk = sample_sqrt_c_walk(toy, int(rng.integers(8)), 0.75, rng, max_length=6)
            if len(walk) < 2:
                continue
            sparse_scores = probe_deterministic_python(toy, walk, SQRT_C_TOY, eps_p)
            dense_scores = probe_deterministic(
                toy_csr, walk, SQRT_C_TOY, eps_p
            )
            rebuilt = {
                node: dense_scores[node]
                for node in np.nonzero(dense_scores)[0].tolist()
            }
            assert rebuilt == pytest.approx(sparse_scores, abs=1e-12)

    def test_python_vs_vectorized_on_random_graph(self, tiny_wiki, tiny_wiki_csr):
        rng = np.random.default_rng(5)
        sqrt_c = np.sqrt(0.6)
        for _ in range(25):
            start = int(rng.integers(tiny_wiki.num_nodes))
            walk = sample_sqrt_c_walk(tiny_wiki, start, sqrt_c, rng, max_length=5)
            if len(walk) < 2:
                continue
            sparse_scores = probe_deterministic_python(tiny_wiki, walk, sqrt_c)
            dense_scores = probe_deterministic(tiny_wiki_csr, walk, sqrt_c)
            for node, value in sparse_scores.items():
                assert dense_scores[node] == pytest.approx(value, abs=1e-12)
            assert np.count_nonzero(dense_scores) == len(sparse_scores)

    def test_matvec_path_agrees_with_slice_path(self, tiny_wiki_csr):
        """Force the dense-matvec branch and compare against the default."""
        rng = np.random.default_rng(11)
        sqrt_c = np.sqrt(0.6)
        walk = sample_sqrt_c_walk(tiny_wiki_csr, 3, sqrt_c, rng, max_length=5)
        if len(walk) < 2:
            walk = [3] + [int(tiny_wiki_csr.in_neighbors(3)[0])]
        via_slices = probe_deterministic(
            tiny_wiki_csr, walk, sqrt_c, dense_frontier_fraction=1e9
        )
        via_matvec = probe_deterministic(
            tiny_wiki_csr, walk, sqrt_c, dense_frontier_fraction=1e-9
        )
        np.testing.assert_allclose(via_slices, via_matvec, atol=1e-12)


class TestEdgeCases:
    def test_prefix_too_short(self, toy, toy_csr):
        with pytest.raises(QueryError):
            probe_deterministic_python(toy, [0], SQRT_C_TOY)
        with pytest.raises(QueryError):
            probe_deterministic(toy_csr, [0], SQRT_C_TOY)

    def test_dead_frontier_returns_empty(self):
        # 1 -> 0; probing (0, 1): node 1 has no out-neighbours besides...
        g = DiGraph.from_edges([(1, 0)])
        scores = probe_deterministic_python(g, [0, 1], 0.5)
        assert scores == {}

    def test_full_prune_returns_empty(self, toy):
        scores = probe_deterministic_python(
            toy, _walk("a", "b", "a", "b"), SQRT_C_TOY, eps_p=1.0
        )
        assert scores == {}
        dense = probe_deterministic(
            CSRGraph.from_digraph(toy), _walk("a", "b", "a", "b"), SQRT_C_TOY, eps_p=1.0
        )
        assert not np.any(dense)

    def test_pruning_error_bounded_by_eps_p(self, tiny_wiki, tiny_wiki_csr):
        """Lemma 7: 0 <= Score(v) - Score(v, eps_p) <= eps_p."""
        rng = np.random.default_rng(31)
        sqrt_c = np.sqrt(0.6)
        eps_p = 0.02
        checked = 0
        # start walks inside the dense core (nonzero in-degree) so they are
        # long enough to exercise multiple pruning iterations.
        eligible = np.nonzero(tiny_wiki_csr.in_degrees > 0)[0]
        for _ in range(60):
            start = int(rng.choice(eligible))
            walk = sample_sqrt_c_walk(tiny_wiki, start, sqrt_c, rng, max_length=5)
            if len(walk) < 3:
                continue
            full = probe_deterministic(tiny_wiki_csr, walk, sqrt_c)
            pruned = probe_deterministic(tiny_wiki_csr, walk, sqrt_c, eps_p)
            diff = full - pruned
            assert diff.min() >= -1e-12
            assert diff.max() <= eps_p + 1e-12
            checked += 1
        assert checked > 5
