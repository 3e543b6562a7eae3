"""Suite for Algorithm 3's per-prefix loop: ``strategy="batch"``.

Algorithm 3 (one shared probe per distinct walk prefix) runs either as the
per-prefix loop (``strategy="batch"``) or as the native trie sweep
(``strategy="native"``); the strategy alone picks the path, and both draw
their walks through the counter-RNG sampler, so on one seed they probe one
walk set.  These tests pin what the loop promises next to the sweep:
oracle agreement, rejected knobs, labels, shared stats and sync.  The
native engine's own tiers (bit-reproducibility, loop oracle, sweep shape)
live in ``test_native_engine.py``.
"""

import numpy as np
import pytest

from repro.api.registry import get_entry
from repro.core.config import ProbeSimConfig
from repro.core.engine import ProbeSim
from repro.core.native import fallback
from repro.core.native.rng import stream_base, walk_bases
from repro.core.probe import probe_deterministic_python
from repro.core.walk_trie import WalkTrie
from repro.errors import ConfigurationError
from repro.graph import CSRGraph, DiGraph
from repro.graph.generators import erdos_renyi_graph

#: prune-off settings shared by the exact-equivalence tests
EXACT = dict(prune=False, max_walk_length=8, compensate_truncation=False)


@pytest.fixture(scope="module")
def dyadic():
    """10 nodes, every in-degree a power of two (0/1/2/4), with a dangling
    node (4), an isolated node (9) and a disconnected 2-cycle (7, 8).

    At ``c = 0.25`` every PROBE intermediate is a dyadic rational well
    inside float53, so the engines and the oracle compute exact arithmetic
    and their outputs must agree bit-for-bit.
    """
    edges = [(1, 0), (2, 0), (0, 1), (3, 2), (6, 2), (0, 3), (1, 3), (2, 3),
             (4, 3), (4, 5), (3, 6), (5, 6), (7, 8), (8, 7)]
    return DiGraph.from_edges(edges, num_nodes=10)


@pytest.fixture(scope="module")
def ragged():
    """A generated graph with dangling nodes and disconnected components."""
    g = erdos_renyi_graph(40, num_edges=100, seed=5)
    return DiGraph.from_edges(list(g.edges()) + [(40, 41)], num_nodes=44)


def loop_engine(graph, **overrides):
    """Algorithm 3 as the per-prefix loop."""
    return ProbeSim(graph, strategy="batch", **overrides)


def native_engine(graph, **overrides):
    """Algorithm 3 on the native trie sweep."""
    return ProbeSim(graph, strategy="native", **overrides)


def replay_walks(graph, query, seed, num_walks, sqrt_c, max_len):
    """The walk set a seeded query draws, as a list of walks."""
    csr = CSRGraph.from_digraph(graph)
    bases = walk_bases(stream_base(seed, query), num_walks)
    nodes, lengths = fallback.sample_walks(
        csr.in_indptr, csr.in_indices, csr.in_degrees,
        bases, query, sqrt_c, max_len,
    )
    return [nodes[i, : lengths[i]].tolist() for i in range(num_walks)]


def oracle_estimate(graph, walks, sqrt_c):
    """Algorithm 3 recomputed with the hash-map oracle probe, per prefix."""
    acc = np.zeros(graph.num_nodes, dtype=np.float64)
    tree = WalkTrie.from_walks(walks)
    for prefix, weight in tree.iter_prefixes():
        for node, value in probe_deterministic_python(graph, prefix, sqrt_c).items():
            acc[node] += weight * value
    return acc / len(walks)


class TestNodeForNodeEquivalence:
    """Scores agree with what the walks imply, node for node."""

    def test_isolated_query_scores_zero_everywhere_else(self, ragged):
        """A query with no in-edges never moves: both the batch loop and
        the native sweep score it 1 and everything else 0."""
        cfg = dict(c=0.6, eps_a=0.2, seed=1, num_walks=64)
        for engine in (loop_engine(ragged, **cfg), native_engine(ragged, **cfg)):
            result = engine.single_source(43)
            assert result.score(43) == 1.0
            assert np.all(np.delete(result.scores, 43) == 0.0)


class TestBitwiseEquivalence:
    """Bit-for-bit agreement where float arithmetic is exact."""

    def test_dyadic_graph_oracle_bitwise_identical(self, dyadic):
        """Unpruned, the loop and the sweep both equal the hash-map oracle
        on the walks the seed draws."""
        cfg = dict(c=0.25, eps_a=0.1, seed=11, num_walks=128, **EXACT)
        walks = replay_walks(dyadic, 0, 11, 128, 0.5, 8)
        expected = oracle_estimate(dyadic, walks, 0.5)
        expected[0] = 1.0
        for engine in (loop_engine(dyadic, **cfg), native_engine(dyadic, **cfg)):
            np.testing.assert_array_equal(
                engine.single_source(0).scores, expected)


class TestEngineSurface:
    """Configuration, dispatch, labels and capability advertising."""

    def test_batched_rejects_randomized_strategies_and_python_backend(self):
        """Native is a strategy, so it cannot be combined with another one
        or with a probe backend: ``engine=`` and ``backend=`` are TypeErrors."""
        with pytest.raises(TypeError):
            ProbeSimConfig(strategy="hybrid", engine="native")
        with pytest.raises(TypeError):
            ProbeSimConfig(strategy="randomized", engine="native")
        with pytest.raises(TypeError):
            ProbeSimConfig(strategy="native", **{"backend": "python"})
        with pytest.raises(ConfigurationError, match="strategy must be one of"):
            ProbeSimConfig(strategy="batched")

    def test_labels_and_capabilities(self, toy):
        """The label is always ``probesim-<strategy>``, and only native is
        vectorized."""
        native = native_engine(toy, eps_a=0.2, seed=1)
        loop = loop_engine(toy, eps_a=0.2, seed=1)
        assert get_entry("probesim-native").capabilities.vectorized
        assert not get_entry("probesim-batch").capabilities.vectorized
        assert native.single_source(0).method == "probesim-native"
        assert loop.single_source(0).method == "probesim-batch"
        assert "vectorized" in get_entry("probesim-native").capabilities.as_row()

    def test_batched_stats_count_shared_probes(self, tiny_wiki):
        """Both engines run one shared probe per distinct walk prefix, as
        Algorithm 3 prescribes, over one walk set, so their counts agree."""
        cfg = dict(eps_a=0.15, seed=9, num_walks=400)
        native = native_engine(tiny_wiki, **cfg)
        loop = loop_engine(tiny_wiki, **cfg)
        native.single_source(11)
        loop.single_source(11)
        assert native.last_stats.num_walks == loop.last_stats.num_walks == 400
        for stats in (native.last_stats, loop.last_stats):
            assert stats.num_probes == stats.num_tree_nodes > 0
            assert stats.walk_length_total >= stats.num_walks
        for field in ("num_probes", "num_tree_nodes", "walk_length_total"):
            assert getattr(loop.last_stats, field) == getattr(native.last_stats, field)

    def test_sync_refreshes_batched_engine(self, toy):
        graph = toy.copy()
        engine = loop_engine(graph, eps_a=0.2, seed=3)
        before = engine.single_source(0).scores.copy()
        graph.remove_edge(4, 1)
        engine.sync()
        after = engine.single_source(0).scores
        assert engine.graph.num_edges == graph.num_edges
        assert not np.array_equal(before, after)
