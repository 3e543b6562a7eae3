"""ParallelSimRankService: accuracy, determinism, caching, crash recovery, hygiene.

The load-bearing contract: for fixed seeds the process executor is
*bit-identical* to the sequential executor (same partition
and maintenance schedule in one process) — and, for one worker, to the
plain :class:`~repro.api.service.SimRankService` (the one-worker
sequential pool) for every registry method.  Everything else
(caching, crashes, epochs) must preserve that contract.
"""

import numpy as np
import pytest

from repro.api.registry import get_entry, method_names
from repro.api.service import SimRankService
from repro.baselines.power import PowerMethod
from repro.errors import ConfigurationError, QueryError
from repro.graph.dynamic import generate_update_stream
from repro.graph.generators import erdos_renyi_graph
from repro.parallel import pool
from repro.parallel.pool import ParallelSimRankService

from test_shm import segment_names

METHOD = "probesim-native"
CONFIG = {METHOD: {"eps_a": 0.3, "num_walks": 40, "seed": 11}}
QUERIES = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]


def make_service(graph, executor, workers=3, **kwargs):
    return ParallelSimRankService(
        graph.copy(), methods=(METHOD,), configs=CONFIG,
        workers=workers, executor=executor, **kwargs,
    )


def collect(service, with_updates=False):
    """A deterministic call sequence; returns every score vector in order."""
    out = [r.scores.copy() for r in service.single_source_many(QUERIES)]
    out.append(service.single_source(7).scores.copy())
    if with_updates:
        service.apply_edges(added=[(0, 9)], removed=[])
        out.extend(
            r.scores.copy() for r in service.single_source_many(QUERIES[:5])
        )
    out.append(service.topk(2, 5).scores.copy())
    return out


class TestBitIdentical:
    def test_process_matches_sequential_executor(self, tiny_wiki):
        with make_service(tiny_wiki, "process") as parallel, \
                make_service(tiny_wiki, "sequential") as sequential:
            for got, want in zip(collect(parallel), collect(sequential)):
                np.testing.assert_array_equal(got, want)

    def test_process_matches_sequential_across_updates(self, tiny_wiki):
        with make_service(tiny_wiki, "process") as parallel, \
                make_service(tiny_wiki, "sequential") as sequential:
            for got, want in zip(
                collect(parallel, with_updates=True),
                collect(sequential, with_updates=True),
            ):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("method", method_names())
    def test_one_worker_matches_plain_sequential_service(self, tiny_wiki, method):
        """One process replica answers every registry method with the plain
        in-process service's bytes (the serving benchmark's oracle), on the
        static graph and after one update burst."""
        config = {**get_entry(method).probe_config, "seed": 13}
        if method == "topsim":
            config["depth"] = 2  # full TopSim at depth 3 takes ~20 s here
        configs = {method: config}
        burst = generate_update_stream(tiny_wiki, 6, seed=4)
        with SimRankService(
            tiny_wiki.copy(), methods=(method,), configs=configs
        ) as plain, ParallelSimRankService(
            tiny_wiki.copy(), methods=(method,), configs=configs, workers=1,
            executor="process",
        ) as parallel:
            for leg in ("static", "burst"):
                if leg == "burst":
                    plain.apply_update_stream(burst)
                    parallel.apply_update_stream(burst)
                for got, want in zip(
                    parallel.single_source_many(QUERIES),
                    plain.single_source_many(QUERIES),
                ):
                    assert got.scores.tobytes() == want.scores.tobytes(), leg

    def test_runs_are_reproducible(self, tiny_wiki):
        with make_service(tiny_wiki, "process") as first:
            a = collect(first, with_updates=True)
        with make_service(tiny_wiki, "process") as second:
            b = collect(second, with_updates=True)
        for got, want in zip(a, b):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("executor", ["sequential", "process"])
    def test_lone_queries_are_batches_of_one(self, tiny_wiki, executor):
        """A repeated lone query returns the same bytes on a multi-worker
        pool, and they are the batch path's answer: with the cache off
        every call computes, so no worker may answer it differently."""
        with make_service(tiny_wiki, executor, workers=2) as service:
            singles = [service.single_source(7).scores.tobytes() for _ in range(3)]
            tops = [service.topk(7, 5) for _ in range(3)]
            want = service.single_source_many([7])[0].scores.tobytes()
            want_top = service.topk_many([7], 5)[0]
            assert not service.cache.enabled
        assert singles == [want] * 3
        for top in tops:
            assert top.nodes.tobytes() == want_top.nodes.tobytes()
            assert top.scores.tobytes() == want_top.scores.tobytes()

    def test_topk_many_matches_sequential(self, tiny_wiki):
        with make_service(tiny_wiki, "process") as parallel, \
                make_service(tiny_wiki, "sequential") as sequential:
            for got, want in zip(
                parallel.topk_many(QUERIES[:4], k=5),
                sequential.topk_many(QUERIES[:4], k=5),
            ):
                np.testing.assert_array_equal(got.nodes, want.nodes)
                np.testing.assert_array_equal(got.scores, want.scores)


class TestCache:
    def test_hot_hits_skip_workers(self, tiny_wiki):
        with make_service(tiny_wiki, "process", cache_size=64) as service:
            first = service.single_source(3)
            again = service.single_source(3)
            assert again is first  # served straight from the cache
            assert service.cache.stats.hits == 1
            assert service.cache.stats.misses == 1

    def test_batch_duplicates_hit_across_batches(self, tiny_wiki):
        with make_service(tiny_wiki, "process", cache_size=64) as service:
            service.single_source_many(QUERIES)
            service.single_source_many(QUERIES)
            distinct = len(set(QUERIES))
            assert service.cache.stats.misses == distinct
            assert service.cache.stats.hits == distinct

    @pytest.mark.parametrize("executor", ["process", "sequential"])
    def test_timed_batch_reports_per_op_seconds(self, tiny_wiki, executor):
        """Each computed op carries its own worker time, a duplicate its
        batch-mate's, and a cache hit only the coordinator's probe."""
        with make_service(tiny_wiki, executor, cache_size=64) as service:
            results, seconds = service.single_source_many_timed(QUERIES)
            assert len(seconds) == len(QUERIES)
            first = {}
            for query, result, elapsed in zip(QUERIES, results, seconds):
                assert elapsed > 0
                assert first.setdefault(query, (result, elapsed)) == (
                    result, elapsed
                )
            assert len(set(seconds)) > 1  # per op, not one batch mean
            hits, hit_seconds = service.single_source_many_timed(QUERIES)
            assert [r is first[q][0] for q, r in zip(QUERIES, hits)] == [
                True
            ] * len(QUERIES)
            assert max(hit_seconds) < min(seconds)

    def test_sync_epoch_bump_invalidates(self, tiny_wiki):
        with make_service(tiny_wiki, "process", cache_size=64) as service:
            before = service.single_source(3)
            assert service.epoch == 0
            service.apply_edges(added=[(0, 9)])
            assert service.epoch == 1
            assert service.cache.stats.invalidations == 1
            after = service.single_source(3)
            assert after is not before  # recomputed against the new graph
            assert service.cache.stats.hits == 0

    def test_cache_does_not_change_determinism(self, tiny_wiki):
        with make_service(tiny_wiki, "process", cache_size=64) as cached, \
                make_service(tiny_wiki, "sequential", cache_size=64) as oracle:
            for got, want in zip(
                collect(cached, with_updates=True),
                collect(oracle, with_updates=True),
            ):
                np.testing.assert_array_equal(got, want)

    def test_rebuild_sync_never_caches_a_superseded_answer(self, tiny_wiki):
        """A reader racing rebuild syncs leaves no answer computed on the
        old replicas cached under the new epoch: once the last update is
        acknowledged, every cached answer is a fresh service's answer on
        the final graph."""
        import sys
        import threading

        hot = list(range(30))
        burst = generate_update_stream(tiny_wiki, 40, seed=3)
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with make_service(
                tiny_wiki, "sequential", workers=1, cache_size=1000
            ) as service:
                assert service.maintenance == "rebuild"
                done = threading.Event()

                def read():
                    try:
                        while not done.is_set():
                            for query in hot:
                                service.single_source(query)
                    except Exception as exc:  # surfaced below
                        errors.append(exc)

                reader = threading.Thread(target=read)
                reader.start()
                try:
                    for update in burst:
                        service.apply_update_stream([update])
                finally:
                    done.set()
                    reader.join()
                cached = {query: service.cached(query) for query in hot}
                final = service.graph.copy()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        with make_service(final, "sequential", workers=1) as fresh:
            stale = [
                query for query, result in cached.items()
                if result is not None
                and result.scores.tobytes()
                != fresh.single_source(query).scores.tobytes()
            ]
        assert stale == []

    def test_cache_disabled_by_default(self, tiny_wiki):
        with make_service(tiny_wiki, "process") as service:
            service.single_source(3)
            service.single_source(3)
            assert not service.cache.enabled
            assert service.cache.stats.lookups == 0


class TestCrashRecovery:
    def kill_one_worker(self, service):
        service._workers[1].process.kill()
        service._workers[1].process.join(timeout=10)

    @pytest.mark.parametrize("method", [
        "probesim", "probesim-randomized", "probesim-walkindex",
        "probesim-native", "mc", "tsf",
    ])
    def test_crash_mid_service_preserves_results(self, tiny_wiki, method):
        """A revived worker is rebuilt at the live graph state and never
        replays the queries its predecessor served: every randomized method
        must answer a query the same whatever ran on the worker before it,
        across epoch rebuilds (ProbeSim, MC) and delta bursts (TSF, the
        walk index) alike."""
        def run(executor, kill):
            with ParallelSimRankService(
                tiny_wiki.copy(), methods=(method,), workers=3,
                configs={method: {"seed": 11, **get_entry(method).probe_config}},
                executor=executor,
            ) as service:
                out = [r.scores.copy() for r in service.single_source_many(QUERIES)]
                kill(service)
                service.apply_edges(added=[(0, 9)])
                out.extend(
                    r.scores.copy() for r in service.single_source_many(QUERIES[:5])
                )
                kill(service)
                # lone queries are batches of one on worker 0, so a batch
                # wide enough to reach the killed worker 1 comes first
                out.extend(
                    r.scores.copy() for r in service.single_source_many(QUERIES[5:])
                )
                out.append(service.single_source(7).scores.copy())
                out.append(service.topk(2, 5).scores.copy())
                return out, service.stats.worker_restarts

        want, _ = run("sequential", lambda service: None)
        got, restarts = run("process", self.kill_one_worker)
        assert restarts == 2
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_crash_replays_epoch_history(self, tiny_wiki):
        """A worker revived after serving part of the epoch answers later
        queries exactly like the worker that died."""
        with make_service(tiny_wiki, "sequential") as oracle:
            oracle.single_source_many(QUERIES)
            want = [r.scores.copy() for r in oracle.single_source_many(QUERIES[:6])]
        with make_service(tiny_wiki, "process") as service:
            service.single_source_many(QUERIES)  # builds per-worker history
            self.kill_one_worker(service)
            got = [r.scores.copy() for r in service.single_source_many(QUERIES[:6])]
            assert service.stats.worker_restarts == 1
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_crash_during_sync_is_healed(self, tiny_wiki):
        with make_service(tiny_wiki, "process") as service:
            service.single_source_many(QUERIES)
            self.kill_one_worker(service)
            service.apply_edges(added=[(0, 9)])  # sync barrier heals the pool
            assert service.single_source(3).score(3) == 1.0
            assert service.stats.worker_restarts == 1


class TestLifecycleHygiene:
    def base_names(self):
        return segment_names("psim-")

    def test_close_unlinks_shared_memory(self, tiny_wiki):
        before = self.base_names()
        service = make_service(tiny_wiki, "process")
        assert len(self.base_names()) > len(before)
        service.close()
        assert self.base_names() == before

    def test_constructor_failure_unlinks(self, tiny_wiki):
        before = self.base_names()
        with pytest.raises(ConfigurationError):
            ParallelSimRankService(
                tiny_wiki.copy(), methods=(METHOD,),
                configs={METHOD: {"no_such_knob": 1}}, workers=2,
            )
        assert self.base_names() == before

    def test_exception_inside_with_block_unlinks(self, tiny_wiki):
        before = self.base_names()
        with pytest.raises(RuntimeError):
            with make_service(tiny_wiki, "process"):
                raise RuntimeError("simulated serving failure")
        assert self.base_names() == before

    def test_close_is_idempotent(self, tiny_wiki):
        service = make_service(tiny_wiki, "process")
        service.close()
        service.close()

    def test_estimator_error_does_not_kill_worker(self, tiny_wiki):
        """Worker-side exceptions surface as errors, not crashes."""
        with make_service(tiny_wiki, "process") as service:
            with pytest.raises(QueryError):
                service.single_source(10_000)
            assert service.single_source(3).score(3) == 1.0
            assert service.stats.worker_restarts == 0


class TestValidation:
    def test_rejects_non_parallel_safe_methods(self, tiny_wiki):
        with pytest.raises(ConfigurationError, match="parallel_safe"):
            ParallelSimRankService(tiny_wiki.copy(), methods=("sling",), workers=2)

    def test_one_worker_mounts_non_parallel_safe_methods(self, toy):
        """One replica has no per-worker rebuild to multiply, so a 1-worker
        pool mounts the methods a wider pool rejects."""
        for executor in ("process", "sequential"):
            with ParallelSimRankService(
                toy.copy(), methods=("power", "sling"), workers=1,
                executor=executor,
            ) as service:
                for method in ("power", "sling"):
                    assert service.single_source(0, method).score(0) == 1.0

    def test_unknown_executor(self, tiny_wiki):
        for executor in ("coroutine", "thread"):
            with pytest.raises(ConfigurationError, match="executor"):
                make_service(tiny_wiki, executor)

    def test_unknown_default_method(self, tiny_wiki):
        with pytest.raises(ConfigurationError):
            ParallelSimRankService(
                tiny_wiki.copy(), methods=(METHOD,), configs=CONFIG,
                default_method="tsf", workers=1, executor="sequential",
            )

    def test_frozen_graph_rejects_updates(self, tiny_wiki_csr):
        with ParallelSimRankService(
            tiny_wiki_csr, methods=(METHOD,), configs=CONFIG,
            workers=1, executor="sequential",
        ) as service:
            with pytest.raises(ConfigurationError):
                service.apply_edges(added=[(0, 9)])

    def test_bad_query_ids(self, tiny_wiki):
        with make_service(tiny_wiki, "sequential", workers=1) as service:
            with pytest.raises(QueryError):
                service.single_source("zero")
            with pytest.raises(QueryError):
                service.single_source(-1)
            with pytest.raises(QueryError):
                service.topk(0, k=0)

    def test_capabilities_come_from_registry(self, tiny_wiki):
        with make_service(tiny_wiki, "sequential", workers=1) as service:
            caps = service.capabilities()
            assert caps.parallel_safe
            assert caps.method == METHOD


class TestPipeDiscipline:
    def test_worker_error_drains_inflight_replies(self, tiny_wiki):
        """A worker-side error in one share must not leave another worker's
        reply buffered in its pipe — later calls would silently read stale
        results (off-by-one forever)."""
        with make_service(tiny_wiki, "process", workers=2) as service, \
                make_service(tiny_wiki, "sequential", workers=2) as oracle:
            for target in (service, oracle):
                bad = {
                    0: ("query", ("no-such-mount", [(0, 3)])),
                    1: ("query", (METHOD, [(1, 4)])),
                }
                with pytest.raises(QueryError, match="no-such-mount"):
                    target._rpc_all(bad)
            # both executors consumed identical streams through the failure;
            # the pipes must still be in lock-step afterwards
            for got, want in zip(
                service.single_source_many(QUERIES),
                oracle.single_source_many(QUERIES),
            ):
                np.testing.assert_array_equal(got.scores, want.scores)
            assert service.stats.worker_restarts == 0


INCREMENTAL = "tsf"
INCREMENTAL_CONFIG = {INCREMENTAL: {"rg": 12, "rq": 3, "depth": 5, "seed": 11}}


def make_incremental(graph, executor, workers=3, **kwargs):
    return ParallelSimRankService(
        graph.copy(), methods=(INCREMENTAL,), configs=INCREMENTAL_CONFIG,
        workers=workers, executor=executor, **kwargs,
    )


def collect_with_bursts(service):
    """Queries interleaved with two small update bursts, scores in order."""
    out = [r.scores.copy() for r in service.single_source_many(QUERIES)]
    service.apply_edges(added=[(0, 9), (5, 17)])
    out.extend(r.scores.copy() for r in service.single_source_many(QUERIES[:6]))
    service.apply_edges(removed=[(0, 9)])
    out.append(service.single_source(7).scores.copy())
    return out


class TestDeltaMaintenance:
    """The O(Δ) path: in-place absorption instead of epoch rebuilds."""

    def test_auto_resolves_by_capability(self, tiny_wiki):
        with make_incremental(tiny_wiki, "sequential") as incremental, \
                make_service(tiny_wiki, "sequential") as bulk:
            assert incremental.maintenance == "delta"
            assert bulk.maintenance == "rebuild"  # probesim is not incremental

    def test_explicit_delta_needs_incremental_methods(self, tiny_wiki):
        with pytest.raises(ConfigurationError, match="incremental_updates"):
            make_service(tiny_wiki, "sequential", maintenance="delta")

    def test_explicit_delta_needs_mutable_graph(self, tiny_wiki_csr):
        with pytest.raises(ConfigurationError, match="mutable"):
            ParallelSimRankService(
                tiny_wiki_csr, methods=(INCREMENTAL,),
                configs=INCREMENTAL_CONFIG, workers=1,
                executor="sequential", maintenance="delta",
            )

    def test_one_segment_per_live_generation(self, tiny_wiki, monkeypatch):
        """Delta bursts travel in the RPC, so shared memory holds only the
        generations: no control segment and no delta-log segment, before
        or after delta syncs and a compaction."""
        monkeypatch.setattr(pool, "COMPACT_AFTER", 3)
        with make_incremental(tiny_wiki, "process") as service:
            base = service._shm.base_name
            assert segment_names(base) == [f"{base}-g0"]
            service.apply_edges(added=[(0, 9), (5, 17)])   # delta
            assert segment_names(base) == [f"{base}-g0"]
            service.apply_edges(added=[(1, 9), (2, 9)])    # compacts
            assert service.epoch == 1
            assert segment_names(base) == [f"{base}-g1"]
        assert segment_names(base) == []

    def test_delta_sync_does_not_publish_an_epoch(self, tiny_wiki):
        with make_incremental(tiny_wiki, "process") as service:
            service.single_source(3)
            service.apply_edges(added=[(0, 9)])
            assert service.epoch == 0  # the graph generation stood still
            assert service.stats.delta_syncs == 1
            assert service.stats.delta_updates == 1
            assert service.stats.epochs == 0
            assert service.stats.syncs == 1
            assert service.single_source(3).score(3) == 1.0

    def test_process_matches_sequential_oracle_under_updates(self, tiny_wiki):
        with make_incremental(tiny_wiki, "process") as parallel, \
                make_incremental(tiny_wiki, "sequential") as oracle:
            for got, want in zip(
                collect_with_bursts(parallel), collect_with_bursts(oracle)
            ):
                np.testing.assert_array_equal(got, want)

    def test_delta_runs_are_reproducible(self, tiny_wiki):
        with make_incremental(tiny_wiki, "process") as first:
            a = collect_with_bursts(first)
        with make_incremental(tiny_wiki, "process") as second:
            b = collect_with_bursts(second)
        for got, want in zip(a, b):
            np.testing.assert_array_equal(got, want)

    def test_untouched_hot_keys_stay_warm(self, tiny_wiki):
        """Fine-grained invalidation: an update far from the hot query must
        not evict its cached answer (the rebuild path would flush it)."""
        with make_incremental(tiny_wiki, "process", cache_size=64) as service:
            hot = 3
            burst = [(150, 160)]  # far from node 3's 1-hop neighborhood
            assert hot not in {n for edge in burst for n in edge}
            first = service.single_source(hot)
            service.apply_edges(added=burst)
            again = service.single_source(hot)
            assert again is first  # still served from the cache
            assert service.cache.stats.hits == 1

    def test_touched_neighborhood_is_invalidated(self, tiny_wiki):
        with make_incremental(tiny_wiki, "process", cache_size=64) as service:
            first = service.single_source(3)
            service.apply_edges(added=[(3, 9)])  # 3 is an endpoint
            assert service.cache.stats.invalidations >= 1
            again = service.single_source(3)
            assert again is not first  # recomputed against the new graph

    def test_log_overflow_compacts_into_a_fresh_epoch(self, tiny_wiki, monkeypatch):
        monkeypatch.setattr(pool, "COMPACT_AFTER", 3)
        with make_incremental(tiny_wiki, "process", cache_size=64) as service:
            service.single_source(3)
            service.apply_edges(added=[(0, 9), (5, 17)])   # fits: delta
            assert service.epoch == 0
            service.apply_edges(added=[(1, 9), (2, 9)])    # overflows: compact
            assert service.epoch == 1
            assert service.stats.delta_syncs == 1
            assert service.stats.epochs == 1
            # compaction emptied the log, so small bursts go delta again
            service.apply_edges(removed=[(0, 9)])
            assert service.epoch == 1
            assert service.stats.delta_syncs == 2
            assert service.single_source(3).score(3) == 1.0

    def test_compaction_matches_sequential_oracle(self, tiny_wiki, monkeypatch):
        monkeypatch.setattr(pool, "COMPACT_AFTER", 3)

        def run(executor):
            with make_incremental(tiny_wiki, executor) as service:
                return collect_with_bursts(service)

        for got, want in zip(run("process"), run("sequential")):
            np.testing.assert_array_equal(got, want)

    def test_crash_mid_delta_replays_the_stream(self, tiny_wiki):
        """A worker killed after absorbing deltas is rebuilt at the epoch's
        generation and re-reads the delta stream in order — its mirror and
        its one-way graphs then match the sequential oracle's exactly."""
        with make_incremental(tiny_wiki, "sequential") as oracle:
            oracle.single_source_many(QUERIES)
            oracle.apply_edges(added=[(0, 9), (5, 17)])
            oracle.single_source_many(QUERIES[:6])
            want = [r.scores.copy() for r in oracle.single_source_many(QUERIES)]
        with make_incremental(tiny_wiki, "process") as service:
            service.single_source_many(QUERIES)
            service.apply_edges(added=[(0, 9), (5, 17)])
            service.single_source_many(QUERIES[:6])
            service._workers[1].process.kill()
            service._workers[1].process.join(timeout=10)
            got = [r.scores.copy() for r in service.single_source_many(QUERIES)]
            assert service.stats.worker_restarts == 1
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_failed_delta_burst_heals_by_compaction(self, tiny_wiki):
        """A replica raising mid-burst must not wedge the service: the
        burst is already in the log and some mirrors may have applied it,
        so sync falls back to one epoch rebuild (consistent state), then
        surfaces the error — and later small bursts go delta again."""
        from repro.api.estimator import Capabilities, SimRankEstimator
        from repro.api.registry import _REGISTRY, register
        from repro.core.results import SimRankResult

        class _FragileIncremental(SimRankEstimator):
            """Incremental replica that corrupts on one poisoned update."""

            def __init__(self, graph):
                self.graph = graph

            def single_source(self, query):
                return SimRankResult(
                    query=query, scores=np.zeros(self.graph.num_nodes),
                    num_walks=0, elapsed=0.0, method="fragile",
                )

            def sync(self):
                """Nothing to rebuild."""

            def apply_updates(self, updates):
                for update in updates:
                    if update.target == 150:
                        raise RuntimeError("replica corrupted")

        name = "fragile-incremental-test"
        register(name, lambda graph: _FragileIncremental(graph),
                 capabilities=Capabilities(
                     method="fragile", exact=False, index_based=True,
                     supports_dynamic=True, incremental_updates=True,
                     parallel_safe=True,
                 ),
                 replace=True)
        try:
            with ParallelSimRankService(
                tiny_wiki.copy(), methods=(name,), workers=2,
                executor="sequential", maintenance="delta",
            ) as service:
                service.apply_edges(added=[(0, 9)])  # healthy burst: delta
                assert service.stats.delta_syncs == 1
                assert service.epoch == 0
                with pytest.raises(QueryError, match="replica corrupted"):
                    service.apply_edges(added=[(0, 150)])  # poisoned burst
                # healed: the compaction published the mutated graph as a
                # fresh epoch, every replica was rebuilt, the log is empty
                assert service.epoch == 1
                assert service.stats.epochs == 1
                assert service.graph.has_edge(0, 150)
                assert service.single_source(3).query == 3  # still serving
                service.apply_edges(added=[(1, 9)])  # delta path works again
                assert service.stats.delta_syncs == 2
                assert service.epoch == 1
        finally:
            _REGISTRY.pop(name, None)

    def test_rejected_update_never_reaches_the_pending_burst(self, tiny_wiki):
        """A rejected mutation (duplicate insert) must leave no trace in
        the pending delta record: the next sync ships only the updates the
        graph actually took, instead of poisoning every worker mirror."""
        from repro.errors import DuplicateEdgeError

        existing = next(iter(tiny_wiki.edges()))
        with make_incremental(
            tiny_wiki, "sequential", auto_sync=False
        ) as service:
            service.apply_edges(added=[(0, 9)])  # valid, deferred
            with pytest.raises(DuplicateEdgeError):
                service.apply_edges(added=[existing])
            service.sync()  # ships exactly the one applied update
            assert service.stats.delta_syncs == 1
            assert service.stats.delta_updates == 1
            assert service.single_source(3).query == 3

    def test_mixed_batch_failure_syncs_applied_prefix_unmasked(self, tiny_wiki):
        """Under auto_sync a mid-batch rejection still flushes the applied
        prefix through the delta path, and the caller sees the original
        graph error — not a worker-side QueryError from a poisoned burst."""
        from repro.errors import DuplicateEdgeError

        existing = next(iter(tiny_wiki.edges()))
        with make_incremental(tiny_wiki, "sequential") as service:
            with pytest.raises(DuplicateEdgeError):
                service.apply_edges(added=[(0, 9), existing])
            assert service.stats.updates_applied == 1
            assert service.stats.delta_syncs == 1
            assert service.stats.delta_updates == 1
            assert service.graph.has_edge(0, 9)

    def test_failed_rebuild_retry_does_not_drop_the_burst(self, tiny_wiki, monkeypatch):
        """If the rebuild/compaction attempt dies transiently, the pending
        record and the staleness flag must survive, so the retry actually
        delivers the mutations instead of shipping an empty delta and
        declaring the service clean."""
        monkeypatch.setattr(pool, "COMPACT_AFTER", 2)
        with make_incremental(tiny_wiki, "sequential", auto_sync=False) as service:
            service.apply_edges(added=[(0, 9), (5, 17), (1, 9)])  # > capacity
            original = service._rebarrier

            def exploding_rebarrier():
                raise RuntimeError("transient rebuild failure")

            service._rebarrier = exploding_rebarrier
            with pytest.raises(RuntimeError, match="transient"):
                service.sync()
            assert service._graph_stale
            assert len(service._pending_updates) == 3
            service._rebarrier = original
            service.sync()  # the retry performs the real rebuild
            assert not service._graph_stale
            assert service.stats.epochs == 1  # one *completed* rebuild
            # worker mirrors caught up with the coordinator graph
            mirror = service._workers[0].core.mirror
            assert mirror.num_edges == service.graph.num_edges
            assert mirror.has_edge(1, 9)


class TestServedAccuracy:
    """Every served score is SimRank: within ``eps_a`` of the Power Method
    on the live graph, whichever worker answered and after updates too."""

    EPS_A = 0.1  # the estimator's default, with delta = 0.01

    def assert_within_eps(self, service, queries):
        truth = PowerMethod(service.graph, c=0.6).compute()
        for result in service.single_source_many(queries):
            error = np.abs(result.scores - truth[result.query]).max()
            assert error <= self.EPS_A, (result.query, error)

    def test_pool_answers_within_eps_of_exact(self):
        graph = erdos_renyi_graph(200, num_edges=600, seed=2024)
        queries = list(range(0, 200, 10))
        rng = np.random.default_rng(7)
        edges = list(graph.edges())
        removed = [edges[i] for i in rng.choice(len(edges), 10, replace=False)]
        added = []
        while len(added) < 10:
            s, t = (int(x) for x in rng.integers(0, 200, size=2))
            if s != t and not graph.has_edge(s, t) and (s, t) not in added:
                added.append((s, t))
        with ParallelSimRankService(
            graph.copy(), methods=(METHOD,), configs={METHOD: {"seed": 11}},
            workers=2, executor="process",
        ) as service:
            self.assert_within_eps(service, queries)
            service.apply_edges(added=added, removed=removed)
            self.assert_within_eps(service, queries)
