"""Correctness suite for the native engine (``strategy="native"``).

Five tiers of guarantees are pinned here:

1. **Bit-reproducibility** — with an integer seed (python or numpy), a
   native answer is a pure function of ``(config, graph, query)``:
   repeated calls, fresh engines, different call orders, and every
   ``single_source_many`` batch composition return byte-identical scores
   (the counter RNG is keyed by ``(seed, query, walk, step)``, so no call
   shares stream state).
2. **Loop oracle** — every strategy draws its walks through native's
   counter RNG, so on one seed ``strategy="batch"`` (Algorithm 3's
   per-prefix loop) probes exactly native's walk set.  With pruning off
   the two answers agree to float round-off, and bit-for-bit on dyadic
   graphs; with pruning on, ``native - batch`` is the mass Pruning rule 2
   drops in the loop, so it lies in ``[0, bound]``.
3. **Oracle agreement** — on dyadic graphs (``c = 0.25``, power-of-two
   in-degrees and walk budget) every probe intermediate is exactly
   representable, so native scores are bit-for-bit equal to the hash-map
   oracle replaying the same walk set; on general graphs they agree to
   float round-off.
4. **Sweep shape** — the sparse/dense switch is a speed choice only:
   forcing every level sparse or every level dense gives the hybrid's
   scores with the same exact zeros, no dense matrix is as wide as the
   switch level, and every level makes exactly one call through the
   primitive seam that instrumentation (``perfbench/replay.py``) counts.
5. **Surface** — config validation, capabilities and labels, registry
   construction, stats, and sync.

The replay seam ties the one-pass sampler the engine runs to the
two-pass composition (``sample_walks`` -> ``WalkTrie.from_walk_arrays``)
the serving benchmark replays: served answers equal it byte for byte.
"""

import gc
import weakref

import numpy as np
import pytest
from scipy import sparse

from repro.api.registry import create
from repro.core import native
from repro.core.config import ProbeSimConfig
from repro.core.engine import ProbeSim
from repro.core.native import fallback
from repro.core.native import engine as native_engine_module
from repro.core.native.rng import stream_base, walk_bases
from repro.core.probe import probe_deterministic_python
from repro.core.walk_trie import WalkTrie
from repro.datasets import TOY_DECAY
from repro.errors import ConfigurationError
from repro.graph import CSRGraph, DiGraph
from repro.graph.csr import as_csr
from repro.graph.generators import erdos_renyi_graph

#: compensation off so scores are the raw walk average (oracle-comparable)
EXACT = dict(compensate_truncation=False, max_walk_length=8)


@pytest.fixture(scope="module")
def dyadic():
    """Power-of-two in-degrees (0/1/2/4) + a dangling node, an isolated
    node, and a disconnected 2-cycle: at ``c = 0.25`` all arithmetic is
    exact, so backends and oracle must agree bit-for-bit."""
    edges = [(1, 0), (2, 0), (0, 1), (3, 2), (6, 2), (0, 3), (1, 3), (2, 3),
             (4, 3), (4, 5), (3, 6), (5, 6), (7, 8), (8, 7)]
    return DiGraph.from_edges(edges, num_nodes=10)


@pytest.fixture(scope="module")
def ragged():
    """A generated graph with dangling and fully isolated nodes."""
    g = erdos_renyi_graph(40, num_edges=100, seed=5)
    return DiGraph.from_edges(list(g.edges()) + [(40, 41)], num_nodes=44)


def native_engine(graph, **overrides):
    return ProbeSim(graph, strategy="native", **overrides)


def replay_walks(graph, query, seed, num_walks, sqrt_c, max_len):
    """The exact walk set a native query draws, as a list of walks."""
    csr = CSRGraph.from_digraph(graph) if isinstance(graph, DiGraph) else graph
    bases = walk_bases(stream_base(seed, query), num_walks)
    nodes, lengths = fallback.sample_walks(
        csr.in_indptr, csr.in_indices, csr.in_degrees,
        bases, query, sqrt_c, max_len,
    )
    return [nodes[i, : lengths[i]].tolist() for i in range(num_walks)]


def oracle_estimate(graph, walks, sqrt_c):
    """Algorithm 3 with the hash-map oracle probe, per distinct prefix."""
    acc = np.zeros(graph.num_nodes, dtype=np.float64)
    tree = WalkTrie.from_walks(walks)
    for prefix, weight in tree.iter_prefixes():
        for node, value in probe_deterministic_python(graph, prefix, sqrt_c).items():
            acc[node] += weight * value
    return acc / len(walks)


def loop_engine(graph, **overrides):
    """The loop engine running Algorithm 3 (``strategy="batch"``)."""
    return ProbeSim(graph, strategy="batch", **overrides)


def loop_oracle_pair(graph, query, **cfg):
    """(native, batch) answers to one query on the same seed, unpruned."""
    return tuple(
        ProbeSim(graph, strategy=strategy, prune=False, **cfg)
        .single_source(query).scores
        for strategy in ("native", "batch")
    )


class TestBitReproducibility:
    """Tier 1: one (seed, query) -> one byte pattern, however it is asked."""

    def test_repeats_and_fresh_engines_are_identical(self, tiny_wiki):
        a = native_engine(tiny_wiki, eps_a=0.15, seed=42)
        first = a.single_source(11).scores
        second = a.single_source(11).scores
        fresh = native_engine(tiny_wiki, eps_a=0.15, seed=42).single_source(11)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, fresh.scores)

    def test_answers_are_call_order_independent(self, tiny_wiki):
        a = native_engine(tiny_wiki, eps_a=0.15, seed=7)
        b = native_engine(tiny_wiki, eps_a=0.15, seed=7)
        forward = {q: a.single_source(q).scores for q in (3, 11, 50)}
        backward = {q: b.single_source(q).scores for q in (50, 11, 3)}
        for q in (3, 11, 50):
            np.testing.assert_array_equal(forward[q], backward[q])

    def test_every_batch_composition_is_identical(self, tiny_wiki):
        """single_source_many answers never depend on how queries are
        grouped — the bit-reproducibility contract batching rides on."""
        queries = [11, 3, 50, 3, 11]
        engine = native_engine(tiny_wiki, eps_a=0.15, seed=9)
        singles = [engine.single_source(q).scores for q in queries]
        as_batch = engine.single_source_many(queries)
        pair_a = engine.single_source_many(queries[:2])
        pair_b = engine.single_source_many(queries[2:])
        assert [r.query for r in as_batch] == queries
        for one, many in zip(singles, as_batch):
            np.testing.assert_array_equal(one, many.scores)
        for one, many in zip(singles, pair_a + pair_b):
            np.testing.assert_array_equal(one, many.scores)

    def test_batched_many_bitwise_equals_looped_singles(self, tiny_wiki):
        """A multi-query call is bit-identical to per-query calls on a
        separately built engine, pruning on or off."""
        queries = [11, 3, 50, 3, 11]
        for prune in (True, False):
            a = native_engine(tiny_wiki, eps_a=0.15, seed=41, prune=prune)
            b = native_engine(tiny_wiki, eps_a=0.15, seed=41, prune=prune)
            singles = [a.single_source(q) for q in queries]
            many = b.single_source_many(queries)
            assert [r.query for r in many] == queries
            for one, shared in zip(singles, many):
                np.testing.assert_array_equal(one.scores, shared.scores)

    def test_seeds_and_queries_produce_distinct_streams(self, tiny_wiki):
        a = native_engine(tiny_wiki, eps_a=0.15, seed=1).single_source(11)
        b = native_engine(tiny_wiki, eps_a=0.15, seed=2).single_source(11)
        c = native_engine(tiny_wiki, eps_a=0.15, seed=1).single_source(12)
        assert not np.array_equal(a.scores, b.scores)
        assert not np.array_equal(a.scores, c.scores)

    def test_numpy_integer_seed_keeps_answers_pure(self, tiny_wiki):
        """``seed=np.int64(7)`` keys the stream like ``seed=7``: the answer
        to query 3 does not depend on what the engine answered before."""
        warmed = native_engine(tiny_wiki, eps_a=0.15, seed=np.int64(7))
        warmed.single_source(9)
        after_history = warmed.single_source(3).scores
        fresh = native_engine(tiny_wiki, eps_a=0.15, seed=np.int64(7))
        plain = native_engine(tiny_wiki, eps_a=0.15, seed=7)
        np.testing.assert_array_equal(after_history, fresh.single_source(3).scores)
        np.testing.assert_array_equal(after_history, plain.single_source(3).scores)

    def test_unseeded_engine_still_answers(self, toy):
        result = native_engine(toy, c=0.25, eps_a=0.2, num_walks=64).single_source(0)
        assert result.score(0) == 1.0
        assert np.all(result.scores >= 0.0)


class TestLoopOracle:
    """Tier 2: on one seed the per-prefix loop (``batch``) and the native
    sweep probe one walk set, so they give one Algorithm 3 estimate."""

    @pytest.mark.parametrize("query", [0, 3, 5])
    def test_toy_matches_loop_engine(self, toy, query):
        for seed in (29, 30, 31):
            got, expected = loop_oracle_pair(
                toy, query, c=TOY_DECAY, eps_a=0.1, seed=seed, num_walks=400,
                **EXACT)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("query", [0, 7, 40, 42])
    def test_ragged_graph_matches_loop_engine(self, ragged, query):
        """Dangling nodes, a disconnected pair (40, 41) and fully isolated
        nodes (42, 43) flow through both engines identically."""
        for seed in (17, 18, 19):
            got, expected = loop_oracle_pair(
                ragged, query, c=0.6, eps_a=0.15, seed=seed, num_walks=300,
                **EXACT)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [3, 8, 13])
    def test_tiny_wiki_matches_loop_engine(self, tiny_wiki, seed):
        for query in (0, 11, 50, 199):
            got, expected = loop_oracle_pair(
                tiny_wiki, query, eps_a=0.15, seed=seed, num_walks=300, **EXACT)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_dyadic_graph_engines_bitwise_identical(self, dyadic, seed):
        for query in range(dyadic.num_nodes):
            got, expected = loop_oracle_pair(
                dyadic, query, c=0.25, eps_a=0.1, seed=seed, num_walks=256,
                **EXACT)
            np.testing.assert_array_equal(got, expected)

    def test_matches_python_oracle_node_for_node(self, toy):
        engine = loop_engine(toy, c=TOY_DECAY, eps_a=0.1, seed=61,
                             num_walks=256, prune=False, **EXACT)
        got = engine.single_source(2).scores
        walks = replay_walks(toy, 2, 61, 256, engine.config.sqrt_c, 8)
        expected = oracle_estimate(toy, walks, engine.config.sqrt_c)
        expected[2] = 1.0
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_pruned_runs_stay_within_rule2_budget(self, tiny_wiki):
        """With pruning on the engines diverge only by the loop engine's
        pruned mass (the native sweep never prunes scores), so the gap is
        one-sided and bounded by the Pruning rule 2 error budget."""
        for seed in (23, 24):
            cfg = dict(c=0.6, eps_a=0.1, seed=seed, num_walks=500)
            loop = loop_engine(tiny_wiki, **cfg)
            budget = loop.config.budget
            bound = (1.0 + budget.eps) / (1.0 - budget.sqrt_c) * budget.eps_p
            for query in (5, 11, 50):
                diff = (native_engine(tiny_wiki, **cfg).single_source(query).scores
                        - loop.single_source(query).scores)
                assert diff.min() >= -1e-12  # native never loses mass loop kept
                assert diff.max() <= bound + 1e-12


def replay_composition(graph, query, seed):
    """A served answer rebuilt the way ``perfbench/replay.py`` rebuilds it:
    ``walk_bases`` -> ``sample_walks`` -> ``from_walk_arrays`` ->
    ``probe_trie``, then normalized and finalized."""
    cfg = native_engine(graph, seed=seed).config
    ctx = native.make_context(as_csr(graph), cfg.sqrt_c)
    impl = native.resolve_impl()
    bases = walk_bases(stream_base(seed, query), cfg.walk_count(graph.num_nodes))
    nodes, lengths = impl.sample_walks(
        ctx.in_indptr, ctx.in_indices, ctx.in_degrees,
        bases, query, cfg.sqrt_c, cfg.walk_truncation(),
    )
    trie = WalkTrie.from_walk_arrays(nodes, lengths)
    scores = native.probe_trie(ctx, trie, impl)
    scores /= trie.num_walks
    scores[query] = 1.0
    if cfg.compensate_truncation and cfg.prune:
        scores += cfg.budget.eps_t / 2.0
        scores[query] = 1.0
    return scores


class TestReplaySeam:
    """The engine's one-pass sampler answers byte for byte what the
    two-pass composition the serving benchmark replays answers."""

    @pytest.mark.parametrize("seed", [7, 31])
    def test_tiny_wiki_matches_replay_composition(self, tiny_wiki, seed):
        engine = native_engine(tiny_wiki, seed=seed)
        for query in (0, 5, 11, 50, 199):
            np.testing.assert_array_equal(
                engine.single_source(query).scores,
                replay_composition(tiny_wiki, query, seed))

    @pytest.mark.parametrize("seed", [7, 31])
    def test_ragged_matches_replay_composition(self, ragged, seed):
        """Includes a source (40), a node whose walks die on it (41) and
        isolated nodes (42, 43)."""
        engine = native_engine(ragged, seed=seed)
        for query in (0, 7, 40, 41, 42, 43):
            np.testing.assert_array_equal(
                engine.single_source(query).scores,
                replay_composition(ragged, query, seed))


class TestOracleAgreement:
    """Tier 3: native scores equal the hash-map oracle on native's walks."""

    @pytest.mark.parametrize("query", range(10))
    def test_dyadic_graph_bitwise_equals_oracle(self, dyadic, query):
        cfg = dict(c=0.25, eps_a=0.1, seed=11, num_walks=256, **EXACT)
        result = native_engine(dyadic, **cfg).single_source(query)
        walks = replay_walks(dyadic, query, 11, 256, 0.5, 8)
        expected = oracle_estimate(dyadic, walks, 0.5)
        expected[query] = 1.0
        np.testing.assert_array_equal(result.scores, expected)

    @pytest.mark.parametrize("query", [0, 7, 40, 42])
    def test_ragged_graph_matches_oracle_to_roundoff(self, ragged, query):
        cfg = dict(c=0.6, eps_a=0.15, seed=23, num_walks=300, **EXACT)
        result = native_engine(ragged, **cfg).single_source(query)
        walks = replay_walks(
            ragged, query, 23, 300, np.sqrt(0.6), 8)
        expected = oracle_estimate(ragged, walks, np.sqrt(0.6))
        expected[query] = 1.0
        np.testing.assert_allclose(result.scores, expected, rtol=0, atol=1e-12)

    def test_isolated_query_scores_zero_everywhere_else(self, ragged):
        result = native_engine(ragged, c=0.6, eps_a=0.2, seed=1,
                               num_walks=64).single_source(43)
        assert result.score(43) == 1.0
        assert np.all(np.delete(result.scores, 43) == 0.0)


class LevelCounter:
    """The primitive namespace, counting each level's kind of transition
    the way ``perfbench/replay.py`` does: the switch level holds its rows
    without a call, and the root's closing ``dense_propagate`` counts
    dense in its place."""

    def __init__(self, impl) -> None:
        self._impl = impl
        self.dense = 0
        self.sparse = 0

    def __getattr__(self, name):
        return getattr(self._impl, name)

    def dense_level(self, *args):
        self.dense += 1
        return self._impl.dense_level(*args)

    def dense_propagate(self, *args):
        self.dense += 1
        return self._impl.dense_propagate(*args)

    def sparse_propagate_zero(self, *args):
        self.sparse += 1
        return self._impl.sparse_propagate_zero(*args)


class WidthRecorder:
    """The primitive namespace, recording the width of every dense matrix
    a seam call takes or returns (every densified or propagated width),
    the row count of every sparse merge, and the sparse level count."""

    def __init__(self, impl) -> None:
        self._impl = impl
        self.widths = []
        self.merged = []
        self.sparse = 0

    def __getattr__(self, name):
        return getattr(self._impl, name)

    def _record(self, name, *args):
        self.widths.extend(
            a.shape[1] for a in args if isinstance(a, np.ndarray) and a.ndim == 2)
        out = getattr(self._impl, name)(*args)
        if isinstance(out, np.ndarray):
            self.widths.append(out.shape[1])
        return out

    def sparse_to_dense(self, *args):
        return self._record("sparse_to_dense", *args)

    def dense_level(self, *args):
        return self._record("dense_level", *args)

    def dense_propagate(self, *args):
        return self._record("dense_propagate", *args)

    def sparse_merge_seed(self, *args):
        out = self._impl.sparse_merge_seed(*args)
        self.merged.append(len(out.indptr) - 1)
        return out

    def sparse_propagate_zero(self, *args):
        self.sparse += 1
        return self._impl.sparse_propagate_zero(*args)


def native_trie(graph, query, seed, num_walks, sqrt_c, max_len=10):
    """The native walk trie of one query, with its context."""
    ctx = native.make_context(as_csr(graph), sqrt_c)
    nodes, lengths = fallback.sample_walks(
        ctx.in_indptr, ctx.in_indices, ctx.in_degrees,
        walk_bases(stream_base(seed, query), num_walks), query, sqrt_c, max_len,
    )
    return ctx, WalkTrie.from_walk_arrays(nodes, lengths)


def swept(ctx, trie, monkeypatch, mode):
    """``(scores, counter)`` of one sweep, hybrid or forced one way."""
    weight = {"hybrid": None, "sparse": 0, "dense": 10**15}[mode]
    if weight is not None:
        monkeypatch.setattr(native_engine_module, "SWITCH_FLOP_WEIGHT", weight)
        monkeypatch.setattr(native_engine_module, "SWITCH_PASS_WEIGHT", weight)
    counter = LevelCounter(native.resolve_impl())
    scores = native.probe_trie(ctx, trie, counter)
    monkeypatch.undo()
    return scores / trie.num_walks, counter


class TestSweepShape:
    """Tier 4: the switch only picks a speed; the seam sees every level."""

    @pytest.mark.parametrize("graph_seed", [1, 2, 3])
    def test_forced_sweeps_match_hybrid_on_random_graphs(
        self, graph_seed, monkeypatch
    ):
        graph = erdos_renyi_graph(80, num_edges=320, seed=graph_seed)
        for query in (0, 17, 55):
            ctx, trie = native_trie(graph, query, graph_seed, 600, np.sqrt(0.6))
            hybrid, _ = swept(ctx, trie, monkeypatch, "hybrid")
            all_sparse, sparse_count = swept(ctx, trie, monkeypatch, "sparse")
            all_dense, dense_count = swept(ctx, trie, monkeypatch, "dense")
            assert sparse_count.dense == 0
            assert dense_count.sparse == 0
            np.testing.assert_allclose(all_sparse, hybrid, rtol=0, atol=1e-12)
            np.testing.assert_allclose(all_dense, hybrid, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forced_sweeps_bitwise_on_dyadic_graph(
        self, dyadic, seed, monkeypatch
    ):
        for query in range(dyadic.num_nodes):
            ctx, trie = native_trie(dyadic, query, seed, 256, 0.5, max_len=8)
            hybrid, _ = swept(ctx, trie, monkeypatch, "hybrid")
            for mode in ("sparse", "dense"):
                forced, _ = swept(ctx, trie, monkeypatch, mode)
                np.testing.assert_array_equal(forced, hybrid)

    def test_seam_sees_one_call_per_level(self, tiny_wiki, monkeypatch):
        """Wrapping ``resolve_impl()`` counts every level exactly once, on a
        sweep that runs both kinds of level, and changes no score."""
        ctx, trie = native_trie(tiny_wiki, 5, 7, 200, np.sqrt(0.6))
        scores, counter = swept(ctx, trie, monkeypatch, "hybrid")
        assert counter.sparse > 0 and counter.dense > 0
        assert counter.sparse + counter.dense == trie.max_depth - 1
        plain = native.probe_trie(ctx, trie, native.resolve_impl())
        np.testing.assert_array_equal(scores, plain / trie.num_walks)

    @pytest.mark.parametrize("graph_name", ["ragged", "tiny_wiki", "er"])
    def test_deferred_dense_levels_keep_the_exact_zeros(
        self, graph_name, request, monkeypatch
    ):
        """Dense levels merge before they propagate and then correct each
        prefix's first-meeting cell; that leaves the all-sparse sweep's
        exact zeros exactly in place, makes no score negative and moves
        scores by round-off only."""
        if graph_name == "er":
            graph = erdos_renyi_graph(80, num_edges=320, seed=1)
        else:
            graph = request.getfixturevalue(graph_name)
        hybrid_dense = 0
        for query in (0, 5, 11, 40):
            for seed in (7, 8):
                ctx, trie = native_trie(graph, query, seed, 400, np.sqrt(0.6))
                all_sparse, _ = swept(ctx, trie, monkeypatch, "sparse")
                for mode in ("hybrid", "dense"):
                    scores, counter = swept(ctx, trie, monkeypatch, mode)
                    if mode == "hybrid":
                        hybrid_dense += counter.dense
                    np.testing.assert_array_equal(
                        scores == 0.0, all_sparse == 0.0)
                    assert scores.min() >= 0.0
                    np.testing.assert_allclose(
                        scores, all_sparse, rtol=0, atol=1e-12)
        assert hybrid_dense > 0

    @pytest.mark.parametrize("weight_scale", [1, 2])
    def test_switch_width_is_never_densified_or_propagated(
        self, tiny_wiki, weight_scale, monkeypatch
    ):
        """The switch level's merged rows are held, not densified or
        propagated at their own width: the next level merges them into
        its (here narrower) parent level first.  Both weight scales put
        the switch on a level wider than its parent level."""
        monkeypatch.setattr(
            native_engine_module, "SWITCH_FLOP_WEIGHT",
            native_engine_module.SWITCH_FLOP_WEIGHT * weight_scale)
        monkeypatch.setattr(
            native_engine_module, "SWITCH_PASS_WEIGHT",
            native_engine_module.SWITCH_PASS_WEIGHT * weight_scale)
        ctx, trie = native_trie(tiny_wiki, 5, 7, 200, np.sqrt(0.6))
        recorder = WidthRecorder(native.resolve_impl())
        native.probe_trie(ctx, trie, recorder)
        widths_by_depth = [1] + [len(level) for level in trie.levels]
        switch_depth = trie.max_depth - recorder.sparse
        switch_width = widths_by_depth[switch_depth - 2]
        parent_width = widths_by_depth[switch_depth - 3]
        assert recorder.merged[-1] == switch_width
        assert switch_width > parent_width
        assert recorder.widths and switch_width not in recorder.widths
        assert parent_width in recorder.widths

    def test_csr_product_matches_dense_product(self):
        """The direct kernel call computes ``a @ b``, also when ``a``'s rows
        hold unsorted and duplicate column indices."""
        rng = np.random.default_rng(4)
        indptr = np.r_[0, np.cumsum(rng.integers(0, 12, 30))].astype(np.int64)
        a = fallback.SparseRows(
            indptr, rng.integers(0, 50, indptr[-1]), rng.random(indptr[-1]))
        b = sparse.random(50, 40, density=0.1, format="csr", random_state=2)
        b_rows = fallback.SparseRows(
            b.indptr.astype(np.int64), b.indices.astype(np.int64), b.data)
        got = fallback.csr_product(a, b_rows, 40)
        dense_a = np.zeros((30, 50))
        np.add.at(dense_a, (np.repeat(np.arange(30), np.diff(indptr)),
                            a.indices), a.data)
        product = np.zeros((30, 40))
        product[np.repeat(np.arange(30), np.diff(got.indptr)),
                got.indices] = got.data
        np.testing.assert_allclose(
            product, dense_a @ b.toarray(), rtol=0, atol=1e-14)

    def test_row_dots_match_dense_rows(self):
        """The direct elementwise kernel call sums ``a * b`` row by row
        on rows with unsorted column indices."""
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(2):
            dense = rng.random((20, 30)) * (rng.random((20, 30)) < 0.3)
            r, c = np.nonzero(dense)
            order = np.lexsort((rng.random(len(r)), r))  # unsorted in a row
            rows.append((dense, fallback.SparseRows(
                np.r_[0, np.cumsum(np.bincount(r, minlength=20))].astype(np.int64),
                c[order].astype(np.int64), dense[r[order], c[order]])))
        (a, a_rows), (b, b_rows) = rows
        np.testing.assert_allclose(
            fallback._row_dots(a_rows, b_rows, 30), (a * b).sum(axis=1),
            rtol=0, atol=1e-14)


class TestEngineSurface:
    """Tier 5: config, capabilities, registry, stats, sync."""

    def test_native_rejects_randomized_strategies_and_python_backend(self):
        """Native is one of the strategies; no engine or backend knob can
        pair it with a randomized strategy or the hash-map probe."""
        with pytest.raises(TypeError):
            ProbeSimConfig(strategy="hybrid", engine="native")
        with pytest.raises(TypeError):
            ProbeSimConfig(strategy="randomized", engine="native")
        with pytest.raises(TypeError):
            ProbeSimConfig(strategy="native", **{"backend": "python"})
        with pytest.raises(ConfigurationError, match="strategy must be one of"):
            ProbeSimConfig(strategy="turbo")

    def test_resolve_impl_returns_the_numpy_primitives(self):
        assert native.resolve_impl() is fallback
        assert native.native_backend() == "numpy"

    def test_label_and_capabilities(self, toy):
        engine = native_engine(toy, c=0.25, eps_a=0.2, seed=1)
        caps = engine.capabilities()
        assert caps.method == "probesim-native"
        assert caps.vectorized and caps.parallel_safe
        assert caps.as_row()["vectorized"] is True
        assert engine.single_source(0).method == "probesim-native"
        loop = ProbeSim(toy, strategy="batch", seed=1)
        assert not loop.capabilities().vectorized
        assert loop.single_source(0).method == "probesim-batch"

    def test_registry_constructs_the_native_engine(self, toy):
        est = create("probesim-native", toy, c=0.25, eps_a=0.2, seed=3)
        direct = native_engine(toy, c=0.25, eps_a=0.2, seed=3)
        assert est.capabilities().vectorized
        np.testing.assert_array_equal(
            est.single_source(0).scores, direct.single_source(0).scores)

    def test_stats_are_populated(self, tiny_wiki):
        engine = native_engine(tiny_wiki, eps_a=0.15, seed=9, num_walks=400)
        engine.single_source(11)
        stats = engine.last_stats
        assert stats.num_walks == 400
        assert stats.num_tree_nodes > 0
        assert stats.num_probes == stats.num_tree_nodes
        assert stats.walk_length_total >= stats.num_walks

    def test_stage_seconds_cover_the_query(self, tiny_wiki):
        engine = native_engine(tiny_wiki, eps_a=0.15, seed=9, num_walks=400)
        engine.single_source(11)
        stats = engine.last_stats
        assert stats.sample_seconds > 0.0
        assert stats.sweep_seconds > 0.0
        assert stats.sample_seconds + stats.sweep_seconds <= stats.elapsed

    def test_context_is_cached_per_snapshot(self, tiny_wiki_csr):
        """Engines sharing one CSR snapshot share one operator build."""
        a = native_engine(tiny_wiki_csr, eps_a=0.15, seed=9)
        b = native_engine(tiny_wiki_csr, eps_a=0.15, seed=10)
        a.single_source(3)
        b.single_source(3)
        assert native.context_for(a.graph, a.config.sqrt_c) is native.context_for(
            b.graph, b.config.sqrt_c)

    def test_sync_refreshes_the_native_context(self, toy):
        graph = toy.copy()
        engine = native_engine(graph, c=0.25, eps_a=0.2, seed=3)
        before = engine.single_source(0).scores.copy()
        graph.remove_edge(4, 1)
        engine.sync()
        after = engine.single_source(0).scores
        assert engine.graph.num_edges == graph.num_edges
        assert not np.array_equal(before, after)

    def test_synced_away_context_is_freed_at_once(self, toy):
        """A context holds no reference back to its snapshot, so the old
        snapshot's context is freed on sync without the cycle collector
        (a serving pool syncs once per epoch)."""
        graph = toy.copy()
        engine = native_engine(graph, c=0.25, eps_a=0.2, seed=3)
        engine.single_source(0)
        old = weakref.ref(native.context_for(engine.graph, engine.config.sqrt_c))
        gc.disable()
        try:
            graph.remove_edge(4, 1)
            engine.sync()
            engine.single_source(0)
            assert old() is None
        finally:
            gc.enable()

    def test_walk_budget_matches_other_engines(self, toy):
        shared = dict(c=0.25, eps_a=0.1, delta=0.2, seed=0)
        loop = ProbeSim(toy, strategy="batch", **shared)
        nat = ProbeSim(toy, strategy="native", **shared)
        assert loop.single_source(0).num_walks == nat.single_source(0).num_walks
