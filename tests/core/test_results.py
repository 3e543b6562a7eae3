"""Unit tests for result containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import SimRankResult, TopKResult
from repro.errors import QueryError


def _result(scores, query=0, method="m"):
    return SimRankResult(query=query, scores=np.array(scores, dtype=float), method=method)


class TestSimRankResult:
    def test_basic_accessors(self):
        res = _result([1.0, 0.3, 0.2])
        assert res.num_nodes == 3
        assert res.score(1) == pytest.approx(0.3)
        assert res.query == 0

    def test_score_out_of_range(self):
        res = _result([1.0, 0.5])
        with pytest.raises(QueryError):
            res.score(5)

    def test_rejects_matrix_scores(self):
        with pytest.raises(QueryError):
            SimRankResult(query=0, scores=np.zeros((2, 2)))

    def test_topk_excludes_query(self):
        res = _result([1.0, 0.3, 0.9, 0.1])
        top = res.topk(2)
        assert top.nodes.tolist() == [2, 1]
        assert top.scores.tolist() == pytest.approx([0.9, 0.3])

    def test_topk_tie_break_by_node_id(self):
        res = _result([1.0, 0.5, 0.5, 0.5])
        top = res.topk(2)
        assert top.nodes.tolist() == [1, 2]

    def test_topk_clamps_k(self):
        res = _result([1.0, 0.2, 0.1])
        assert res.topk(50).k == 2  # n - 1 candidates

    def test_topk_of_a_lone_node_is_empty(self):
        top = _result([1.0]).topk(3)
        assert top.k == 0
        assert top.nodes.tolist() == [] and top.scores.tolist() == []

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_topk_is_the_full_stable_argsorts_prefix(self, data):
        # few distinct values: ties everywhere, including at the k-th rank
        scores = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.05, 0.25, 0.5, 1.0]),
            min_size=1, max_size=60,
        )))
        query = data.draw(st.integers(0, len(scores) - 1))
        k = data.draw(st.integers(1, len(scores) + 2))
        masked = scores.copy()
        masked[query] = -np.inf
        expected = np.argsort(-masked, kind="stable")[:min(k, len(scores) - 1)]
        top = SimRankResult(query=query, scores=scores).topk(k)
        assert top.nodes.tolist() == expected.tolist()
        assert top.scores.tolist() == scores[expected].tolist()

    def test_topk_invalid_k(self):
        with pytest.raises(QueryError):
            _result([1.0, 0.2]).topk(0)

    def test_as_dict_thresholds_and_excludes_query(self):
        res = _result([1.0, 0.4, 0.0, 0.05])
        d = res.as_dict(threshold=0.01)
        assert d == {1: pytest.approx(0.4), 3: pytest.approx(0.05)}

    def test_repr(self):
        assert "SimRankResult" in repr(_result([1.0, 0.1]))


class TestTopKResult:
    def test_pairs_and_node_set(self):
        top = TopKResult(query=0, nodes=np.array([2, 1]), scores=np.array([0.9, 0.3]))
        assert top.as_pairs() == [(2, pytest.approx(0.9)), (1, pytest.approx(0.3))]
        assert top.node_set() == {1, 2}
        assert top.k == 2

    def test_iteration(self):
        top = TopKResult(query=0, nodes=np.array([5]), scores=np.array([0.7]))
        assert list(top) == [(5, pytest.approx(0.7))]

    def test_length_mismatch_rejected(self):
        with pytest.raises(QueryError):
            TopKResult(query=0, nodes=np.array([1, 2]), scores=np.array([0.1]))

    def test_repr(self):
        top = TopKResult(query=3, nodes=np.array([1]), scores=np.array([0.2]))
        assert "query=3" in repr(top)
