"""Tests for the batched, dynamic-graph SimRankService (the one-worker pool)."""

import numpy as np
import pytest

from repro.api import Capabilities, SimRankService, registry
from repro.api.estimator import SimRankEstimator
from repro.errors import (
    ConfigurationError,
    DuplicateEdgeError,
    EdgeNotFoundError,
    QueryError,
    ReproError,
)
from repro.graph import CSRGraph, EdgeUpdate
from repro.graph.dynamic import generate_update_stream


def make_service(graph, **kwargs):
    """A two-method service with cheap configs on the given graph."""
    defaults = dict(
        methods=("probesim", "power"),
        configs={"probesim": {"eps_a": 0.2, "seed": 11, "num_walks": 60}},
    )
    defaults.update(kwargs)
    return SimRankService(graph, **defaults)


TSF = {"rg": 10, "rq": 2, "depth": 4, "seed": 3}


class TestConstruction:
    def test_default_method_is_first(self, toy):
        service = make_service(toy.copy())
        assert service.estimator() is service.estimator("probesim")
        assert service.methods == ["power", "probesim"]

    def test_unknown_default_rejected(self, toy):
        with pytest.raises(ConfigurationError):
            SimRankService(toy.copy(), methods=("probesim",), default_method="sling")

    def test_config_for_unmounted_method_rejected(self, toy):
        with pytest.raises(ConfigurationError):
            SimRankService(toy.copy(), methods=("probesim",),
                           configs={"tsf": {"rg": 5}})

    def test_duplicate_mount_rejected(self, toy):
        with pytest.raises(ConfigurationError, match="mounted twice"):
            SimRankService(toy.copy(), methods=("probesim", "power", "probesim"))

    def test_no_methods_rejected(self, toy):
        with pytest.raises(ConfigurationError, match="at least one method"):
            SimRankService(toy.copy(), methods=())

    def test_parallel_unsafe_methods_mount(self, toy):
        """power and sling are parallel_safe=False; one in-process replica
        has no per-worker rebuild to multiply, so they mount here."""
        service = SimRankService(toy.copy(), methods=("power", "sling"))
        assert service.single_source(0, method="sling").score(0) == pytest.approx(1.0)

    def test_unknown_method_lookup(self, toy):
        service = make_service(toy.copy())
        with pytest.raises(ConfigurationError, match="no method"):
            service.single_source(0, method="sling")


class TestQueries:
    def test_single_and_topk(self, toy):
        service = make_service(toy.copy())
        assert service.single_source(0).score(0) == 1.0
        top = service.topk(0, 3, method="power")
        assert top.k == 3
        assert service.stats.queries == 2

    def test_batch_deduplicates(self, toy):
        service = make_service(toy.copy())
        queries = [0, 3, 0, 5, 3, 0]
        results = service.single_source_many(queries)
        assert [r.query for r in results] == queries
        # duplicates share the first occurrence's answer (one sampling round)
        np.testing.assert_array_equal(results[0].scores, results[2].scores)
        np.testing.assert_array_equal(results[1].scores, results[4].scores)
        assert service.stats.batched_queries == 6
        assert service.stats.batched_unique == 3
        assert service.stats.batch_dedup_saved == 3

    def test_topk_many(self, toy):
        service = make_service(toy.copy())
        tops = service.topk_many([0, 1, 0], k=2, method="power")
        assert [t.query for t in tops] == [0, 1, 0]
        assert all(t.k == 2 for t in tops)
        with pytest.raises(QueryError):
            service.topk_many([0], k=0)

    def test_bad_query_type_rejected(self, toy):
        service = make_service(toy.copy())
        with pytest.raises(QueryError):
            service.single_source_many(["a"])


class TestUpdates:
    def test_apply_edges_mutates_graph_and_syncs(self, toy):
        graph = toy.copy()
        service = make_service(graph)
        exact_before = service.single_source(5, method="power").scores.copy()
        applied = service.apply_edges(added=[(0, 5)])
        assert applied == 1
        assert graph.has_edge(0, 5)
        assert service.stats.updates_applied == 1
        assert service.stats.syncs == 1  # one rebuild sync for both methods
        assert service.stats.epochs == 1
        exact_after = service.single_source(5, method="power").scores
        assert not np.array_equal(exact_before, exact_after)

    def test_deferred_sync(self, toy):
        graph = toy.copy()
        service = make_service(graph, auto_sync=False)
        service.apply_edges(added=[(0, 5)])
        assert service.stats.syncs == 0  # deferred
        # the power method's cached matrix is stale until sync()
        stale = service.single_source(5, method="power").scores.copy()
        service.sync()
        assert service.stats.syncs == 1
        fresh = service.single_source(5, method="power").scores
        assert not np.array_equal(stale, fresh)

    def test_incremental_methods_notified_per_update(self, toy):
        graph = toy.copy()
        service = SimRankService(graph, methods=("tsf",), configs={"tsf": TSF})
        stream = generate_update_stream(graph, 4, seed=5)
        assert service.apply_update_stream(stream) == 4
        # every mount is incremental: one delta sync notifies tsf per update
        assert service.maintenance == "delta"
        assert service.stats.incremental_notifications == 4
        assert service.stats.delta_syncs == service.stats.syncs == 1
        assert service.stats.epochs == 0
        assert np.all(np.isfinite(service.single_source(0).scores))

    def test_mixed_mounts_are_rebuilt(self, toy):
        graph = toy.copy()
        service = SimRankService(
            graph,
            methods=("tsf", "probesim"),
            configs={"tsf": TSF,
                     "probesim": {"eps_a": 0.3, "num_walks": 30, "seed": 3}},
        )
        stream = generate_update_stream(graph, 4, seed=5)
        assert service.apply_update_stream(stream) == 4
        # probesim cannot absorb updates in place, so the whole mount takes
        # the rebuild path: tsf is rebuilt too, never notified per update
        assert service.maintenance == "rebuild"
        assert service.stats.incremental_notifications == 0
        assert service.stats.syncs == service.stats.epochs == 1
        assert np.all(np.isfinite(service.single_source(0, method="tsf").scores))

    def test_frozen_graph_rejects_updates(self, toy):
        service = make_service(CSRGraph.from_digraph(toy))
        with pytest.raises(ConfigurationError, match="mutable"):
            service.apply_edges(added=[(0, 5)])

    def test_stats_row(self, toy):
        service = make_service(toy.copy())
        service.single_source(0)
        row = service.stats.as_row()
        assert row["queries"] == 1
        assert "dedup_saved" in row and "syncs" in row

    def test_maintenance_time_charged_per_method(self, toy):
        service = make_service(toy.copy())
        service.apply_edges(added=[(0, 5)])
        charged = service.stats.maintenance_seconds
        assert set(charged) == {"power", "probesim"}
        assert all(seconds >= 0 for seconds in charged.values())
        assert service.stats.total_maintenance_seconds == pytest.approx(
            sum(charged.values())
        )


def _incremental(method):
    return Capabilities(
        method=method, exact=False, index_based=True,
        supports_dynamic=True, incremental_updates=True,
    )


@pytest.fixture()
def stubs():
    """Registers the two stub estimators below for one test."""
    registry.register("exploding", _ExplodingEstimator, config_keys=("explode_at",),
                      capabilities=_incremental("exploding"))
    registry.register("counting", _CountingEstimator,
                      capabilities=_incremental("counting"))
    yield
    for name in ("exploding", "counting"):
        registry._REGISTRY.pop(name)


def exploding_service(graph, explode_at, **kwargs):
    """The exploding stub mounted beside tsf: every mount is incremental."""
    return SimRankService(
        graph, methods=("exploding", "tsf"),
        configs={"exploding": {"explode_at": explode_at}, "tsf": TSF}, **kwargs,
    )


class _ExplodingEstimator(SimRankEstimator):
    """Incremental estimator that raises on its Nth update notification."""

    def __init__(self, graph, explode_at=3):
        self.graph = graph
        self.explode_at = explode_at
        self.notified = 0

    def single_source(self, query):
        raise NotImplementedError  # never queried in these tests

    def sync(self):
        """No state to rebuild."""

    def apply_updates(self, updates):
        """Blow up on the configured notification."""
        for _ in updates:
            self.notified += 1
            if self.notified >= self.explode_at:
                raise RuntimeError("index corrupted")


class TestUpdateStreamEdgeCases:
    def test_empty_stream_applies_nothing_and_skips_sync(self, toy):
        service = make_service(toy.copy())
        assert service.apply_update_stream([]) == 0
        assert service.stats.updates_applied == 0
        assert service.stats.syncs == 0

    def test_duplicate_insert_rejected_graph_and_stats_consistent(self, toy):
        graph = toy.copy()
        service = make_service(graph)
        existing = next(iter(graph.edges()))
        before_edges = graph.num_edges
        with pytest.raises(DuplicateEdgeError):
            service.apply_edges(added=[existing])
        assert graph.num_edges == before_edges
        assert service.stats.updates_applied == 0
        # nothing was applied, so nothing is stale and nothing syncs
        assert service.stats.syncs == 0
        assert np.isfinite(service.single_source(0).scores).all()

    def test_delete_of_missing_edge_rejected_consistently(self, toy):
        graph = toy.copy()
        service = make_service(graph)
        with pytest.raises(EdgeNotFoundError):
            service.apply_edges(removed=[(0, 7)])
        assert service.stats.updates_applied == 0
        assert service.stats.syncs == 0

    def test_partial_stream_failure_still_syncs_applied_prefix(self, toy):
        """An invalid op mid-stream: the valid prefix stays applied AND the
        bulk estimators are synced over it (never silently stale)."""
        graph = toy.copy()
        service = make_service(graph)
        updates = [
            EdgeUpdate("insert", 0, 5),
            EdgeUpdate("delete", 0, 7),  # invalid: not an edge
            EdgeUpdate("insert", 1, 6),
        ]
        with pytest.raises(EdgeNotFoundError):
            service.apply_update_stream(updates)
        assert graph.has_edge(0, 5)
        assert not graph.has_edge(1, 6)
        assert service.stats.updates_applied == 1
        assert service.stats.syncs == 1  # one rebuild synced the prefix
        # the exact method answers against the post-prefix graph
        assert np.isfinite(service.single_source(5, method="power").scores).all()

    def test_mid_stream_estimator_failure_graph_and_stats_consistent(
        self, toy, stubs
    ):
        """An estimator raising while it absorbs a burst must not desync the
        service: the whole stream is applied and counted, the failed delta
        sync heals by rebuilding every replica on the current graph, and
        the error then propagates."""
        graph = toy.copy()
        service = exploding_service(graph, explode_at=2)
        assert service.maintenance == "delta"
        stream = generate_update_stream(graph, 4, seed=5)
        with pytest.raises(QueryError, match="index corrupted"):
            service.apply_update_stream(stream)
        assert service.stats.updates_applied == 4
        assert service.stats.syncs == 1
        assert service.stats.delta_syncs == 0
        assert service.stats.epochs == 1  # the healing rebuild
        rebuilt = service.estimator("exploding")
        assert rebuilt.notified == 0
        assert rebuilt.graph.num_edges == graph.num_edges
        # the service still answers queries against the current graph
        assert np.isfinite(service.single_source(0, method="tsf").scores).all()

    def test_failure_with_deferred_sync_marks_stale(self, toy, stubs):
        graph = toy.copy()
        service = exploding_service(graph, explode_at=1, auto_sync=False)
        stream = generate_update_stream(graph, 3, seed=6)
        # no replica sees the stream before sync(), so nothing fails yet
        assert service.apply_update_stream(stream) == 3
        assert service._graph_stale
        with pytest.raises(QueryError, match="index corrupted"):
            service.sync()
        # the failed delta healed by a rebuild: nothing is left stale
        assert not service._graph_stale
        assert service.stats.syncs == service.stats.epochs == 1
        service.sync()
        assert service.stats.syncs == 1

    def test_library_errors_derive_from_repro_error(self):
        assert issubclass(DuplicateEdgeError, ReproError)
        assert issubclass(EdgeNotFoundError, ReproError)


class _CountingEstimator(SimRankEstimator):
    """Instant, stateless estimator so the stress test is all lock traffic."""

    def __init__(self, graph):
        self.graph = graph

    def single_source(self, query):
        from repro.core.results import SimRankResult

        return SimRankResult(
            query=query, scores=np.zeros(self.graph.num_nodes),
            num_walks=0, elapsed=0.0, method="counting",
        )

    def sync(self):
        """Nothing to rebuild."""

    def apply_updates(self, updates):
        """Incremental no-op: accept the notification instantly."""


class TestConcurrentMaintenanceStats:
    def test_counters_exact_under_query_update_overlap(self, toy, stubs):
        """Regression: maintenance used to bump the shared counters
        (updates_applied, incremental_notifications, syncs,
        charge_maintenance) without the stats lock, racing the lock-guarded
        query counters when query threads overlap the maintenance thread,
        and concurrent worker RPCs could take each other's replies.  With
        the stats lock and the dispatch lock, all final counts are exact."""
        import sys
        import threading

        graph = toy.copy()
        service = SimRankService(graph, methods=("counting",))
        queries_per_thread, threads = 500, 8
        rounds, updates_per_round = 25, 2
        barrier = threading.Barrier(threads + 1)
        wrong: list[tuple[int, object]] = []  # (asked, answered or error)

        def query_loop():
            barrier.wait()
            for index in range(queries_per_thread):
                node = index % graph.num_nodes
                try:
                    answered = service.single_source(node).query
                except Exception as exc:  # noqa: BLE001 - reported below
                    answered = exc
                if answered != node:
                    wrong.append((node, answered))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=query_loop) for _ in range(threads)]
            for worker in workers:
                worker.start()
            barrier.wait()
            edge = (0, 5)
            for _ in range(rounds):
                # insert+delete per round: applies cleanly no matter the round
                service.apply_edges(added=[edge])
                service.apply_edges(removed=[edge])
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []  # no thread received another call's reply
        assert service.stats.queries == threads * queries_per_thread
        assert service.stats.updates_applied == rounds * updates_per_round
        assert (
            service.stats.incremental_notifications == rounds * updates_per_round
        )
        # the only mount is incremental: every sync ships a delta
        assert service.stats.syncs == rounds * updates_per_round
        assert service.stats.delta_syncs == rounds * updates_per_round
        assert service.stats.epochs == 0
        assert not service._graph_stale


class TestContextManager:
    def test_with_block_closes_and_returns_service(self, toy):
        with SimRankService(toy, methods=("probesim",),
                            configs={"probesim": {"eps_a": 0.2, "seed": 7}}) as service:
            assert service.single_source(0).score(0) == 1.0
        service.close()  # idempotent after __exit__

    def test_query_after_close_raises(self, toy):
        service = SimRankService(toy, methods=("probesim",),
                                 configs={"probesim": {"eps_a": 0.2, "seed": 7}})
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            service.single_source(0)
        with pytest.raises(ConfigurationError, match="closed"):
            service.estimator()
