"""Protocol-conformance tests: every registry entry speaks the four verbs.

Parametrized over the full registry: each method is instantiated on the toy
graph (with its cheap ``probe_config``) and exercised through
``single_source``, ``topk``, ``single_source_many`` and ``sync`` —
including the batched-vs-looped equivalence contract under a fixed seed —
and its registry-declared capabilities are checked against what the
method's class and answers actually do.
"""

import numpy as np
import pytest

from repro.api import Capabilities, SimRankEstimator, create, get_entry, method_names
from repro.core.results import SimRankResult, TopKResult
from repro.errors import QueryError

SEED = 1709
QUERIES = [0, 3, 5, 3]  # duplicate on purpose: batches must tolerate repeats


def make(name, graph, seed=SEED):
    """Instantiate one registry method with its cheap probe config."""
    return create(name, graph, seed=seed, **get_entry(name).probe_config)


@pytest.fixture(params=method_names())
def method_name(request):
    return request.param


class TestConformance:
    def test_isinstance(self, toy, method_name):
        estimator = make(method_name, toy)
        assert isinstance(estimator, SimRankEstimator)

    def test_capabilities(self, method_name):
        caps = get_entry(method_name).capabilities
        assert isinstance(caps, Capabilities)
        assert caps.method
        # incremental maintenance implies the method is dynamic-capable
        if caps.incremental_updates:
            assert caps.supports_dynamic
        row = caps.as_row()
        assert {"method", "exact", "index", "dynamic", "incremental"} <= set(row)

    def test_capabilities_match_registry_declaration(self, toy, method_name):
        """The entry's declared capabilities state facts about the method:
        its answers' label, whether its class patches updates in place, and
        whether it runs the vectorized native engine."""
        caps = get_entry(method_name).capabilities
        estimator = make(method_name, toy)
        assert caps.method == estimator.single_source(0).method
        overrides = type(estimator).apply_updates is not SimRankEstimator.apply_updates
        assert caps.incremental_updates == overrides
        strategy = getattr(getattr(estimator, "config", None), "strategy", None)
        assert caps.vectorized == (strategy == "native")

    def test_single_source(self, toy, method_name):
        estimator = make(method_name, toy)
        result = estimator.single_source(0)
        assert isinstance(result, SimRankResult)
        assert result.num_nodes == toy.num_nodes
        assert result.score(0) == 1.0
        assert np.all(result.scores >= 0.0)

    def test_topk(self, toy, method_name):
        estimator = make(method_name, toy)
        top = estimator.topk(0, 3)
        assert isinstance(top, TopKResult)
        assert top.k == 3
        assert 0 not in top.node_set()  # query node excluded
        assert list(top.scores) == sorted(top.scores, reverse=True)

    def test_topk_invalid_k(self, toy, method_name):
        estimator = make(method_name, toy)
        with pytest.raises(QueryError):
            estimator.topk(0, 0)

    def test_invalid_query_rejected(self, toy, method_name):
        """Out-of-range ids, bools and floats are rejected, not coerced."""
        estimator = make(method_name, toy)
        for bad in (toy.num_nodes + 5, toy.num_nodes, -1, True, 1.0):
            with pytest.raises(QueryError):
                estimator.single_source(bad)

    def test_numpy_integer_query(self, toy, method_name):
        """A numpy integer is the same query as the Python int."""
        want = make(method_name, toy).single_source(3)
        got = make(method_name, toy).single_source(np.int64(3))
        assert type(got.query) is int and got.query == 3
        assert got.scores.tobytes() == want.scores.tobytes()

    def test_batched_equals_looped_same_seed(self, toy, method_name):
        """The single_source_many contract: fixed seed => loop equivalence."""
        looped = make(method_name, toy, seed=7)
        batched = make(method_name, toy, seed=7)
        loop_results = [looped.single_source(q) for q in QUERIES]
        batch_results = batched.single_source_many(QUERIES)
        assert len(batch_results) == len(QUERIES)
        for one, many in zip(loop_results, batch_results):
            assert one.query == many.query
            np.testing.assert_array_equal(one.scores, many.scores)

    def test_sync_keeps_answers_current(self, toy, method_name):
        """sync() re-snapshots a mutated source graph for every method."""
        graph = toy.copy()
        estimator = make(method_name, graph)
        estimator.single_source(0)
        # a -> f edge did not exist; after sync every method must see it
        assert not graph.has_edge(0, 5)
        graph.add_edge(0, 5)
        estimator.sync()
        result = estimator.single_source(5)
        assert result.num_nodes == graph.num_nodes
        # node 5 now has in-degree > 0 from node 0's side of the graph, so
        # the estimate vector stays well-formed (no NaN) after maintenance
        assert np.all(np.isfinite(result.scores))

    def test_apply_updates_default(self, toy, method_name):
        """The protocol-level update hook works for every method."""
        from repro.graph.dynamic import EdgeUpdate

        graph = toy.copy()
        estimator = make(method_name, graph)
        update = EdgeUpdate("insert", 0, 5)
        graph.add_edge(0, 5)
        estimator.apply_updates([update])
        assert np.all(np.isfinite(estimator.single_source(0).scores))


#: every method a pool may mount that takes a seed
SEEDED_PARALLEL = [
    name for name in method_names()
    if get_entry(name).capabilities.parallel_safe
    and "seed" in get_entry(name).config_keys
]


def answer_bytes(estimator, verb, query):
    if verb == "topk":
        top = estimator.topk(query, 3)
        return top.nodes.tobytes() + top.scores.tobytes()
    return estimator.single_source(query).scores.tobytes()


class TestPerQueryStreams:
    """With an integer seed an answer is a pure function of (config, graph,
    query): what the pool relies on to revive a worker without replaying
    the queries it served."""

    @pytest.mark.parametrize("verb", ["single_source", "topk"])
    @pytest.mark.parametrize("name", SEEDED_PARALLEL)
    def test_query_bytes_independent_of_history(self, toy, name, verb):
        want = answer_bytes(make(name, toy), verb, 5)
        estimator = make(name, toy)
        for other in (7, 2, 0):
            answer_bytes(estimator, verb, other)
        assert answer_bytes(estimator, verb, 5) == want  # after other queries
        assert answer_bytes(estimator, verb, 5) == want  # repeated


class TestStructuralConformance:
    def test_duck_typed_class_conforms(self):
        class Duck:
            def single_source(self, query):
                raise NotImplementedError

            def topk(self, query, k):
                raise NotImplementedError

            def single_source_many(self, queries):
                raise NotImplementedError

            def sync(self):
                raise NotImplementedError

        assert isinstance(Duck(), SimRankEstimator)
        assert issubclass(Duck, SimRankEstimator)

    def test_partial_class_does_not_conform(self):
        class OnlySingleSource:
            def single_source(self, query):
                raise NotImplementedError

        assert not isinstance(OnlySingleSource(), SimRankEstimator)
        assert not isinstance(object(), SimRankEstimator)
