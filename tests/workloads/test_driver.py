"""Tests for the workload replay driver (reproducibility, accounting)."""

import pytest

from repro.errors import ConfigurationError, EvaluationError
from repro.graph.generators import erdos_renyi_graph
from repro.workloads import LatencyHistogram, generate_workload, run_workload

METHODS = ["probesim-native", "tsf"]
CONFIGS = {
    "probesim-native": {"eps_a": 0.3, "num_walks": 40, "seed": 11},
    "tsf": {"rg": 12, "rq": 3, "depth": 5, "seed": 11},
}


@pytest.fixture(scope="module")
def trace(tiny_wiki):
    return generate_workload(
        tiny_wiki, num_ops=80, read_fraction=0.75, zipf_s=1.0, seed=21
    )


def run(graph, trace, **kwargs):
    defaults = dict(methods=METHODS, configs=CONFIGS, workers=1)
    defaults.update(kwargs)
    return run_workload(graph, trace, **defaults)


class TestReproducibility:
    def test_single_worker_digests_stable(self, tiny_wiki, trace):
        first = run(tiny_wiki, trace)
        second = run(tiny_wiki, trace)
        assert [r.digest for r in first.reports] == [r.digest for r in second.reports]

    def test_multi_worker_digests_stable(self, tiny_wiki, trace):
        first = run(tiny_wiki, trace, workers=3)
        second = run(tiny_wiki, trace, workers=3)
        assert [r.digest for r in first.reports] == [r.digest for r in second.reports]

    def test_json_report_stable_modulo_timing(self, tiny_wiki, trace):
        def strip_timing(payload):
            volatile = {
                "wall_seconds", "qps", "latency", "maintenance_seconds",
                "maintenance_per_update_s", "metrics",  # metrics embed qps/pXX
            }
            return [
                {k: v for k, v in report.items() if k not in volatile}
                for report in payload["reports"]
            ]

        first = run(tiny_wiki, trace, workers=2).to_dict()
        second = run(tiny_wiki, trace, workers=2).to_dict()
        assert first["trace"] == second["trace"]
        assert strip_timing(first) == strip_timing(second)

    def test_trace_signature_echoed(self, tiny_wiki, trace):
        result = run(tiny_wiki, trace)
        assert result.trace_signature == trace.signature()


class TestAccounting:
    def test_every_op_accounted(self, tiny_wiki, trace):
        result = run(tiny_wiki, trace, workers=2)
        for report in result.reports:
            assert report.num_queries == trace.num_queries
            assert report.num_updates == trace.num_updates
            assert report.latency.count == trace.num_queries
            assert len(report.staleness_samples) == trace.num_queries
            assert report.wall_seconds > 0
            assert report.qps > 0

    @pytest.mark.parametrize("executor", ["process", "sequential"])
    def test_incremental_method_never_stale(self, tiny_wiki, trace, executor):
        """A delta-maintained replay absorbs every burst, even when
        ``sync_every`` would defer rebuilds, and counts each update once."""
        result = run(tiny_wiki, trace, methods=["tsf"],
                     configs={"tsf": CONFIGS["tsf"]}, sync_every=3,
                     workers=2, executor=executor)
        assert result.reports[0].staleness_max == 0
        assert result.reports[0].incremental_notifications == trace.num_updates
        assert result.reports[0].sync_every == 1  # the cadence actually run

    def test_deferred_sync_records_staleness(self, tiny_wiki, trace):
        assert trace.num_updates > 0  # precondition for a meaningful test
        result = run(
            tiny_wiki, trace, methods=["probesim-native"],
            configs={"probesim-native": CONFIGS["probesim-native"]},
            sync_every=1000,  # never sync mid-trace
        )
        report = result.reports[0]
        assert report.sync_every == 1000
        assert report.staleness_max > 0
        # queries after the last update batch see every unsynced update
        assert report.staleness_max <= trace.num_updates

    def test_fresh_sync_means_zero_staleness(self, tiny_wiki, trace):
        result = run(tiny_wiki, trace, methods=["probesim-native"],
                     configs={"probesim-native": CONFIGS["probesim-native"]})
        assert result.reports[0].staleness_max == 0

    def test_graph_not_mutated(self, tiny_wiki, trace):
        before = tiny_wiki.copy()
        run(tiny_wiki, trace)
        assert tiny_wiki == before

    def test_rows_and_dict_render(self, tiny_wiki, trace):
        import json

        result = run(tiny_wiki, trace)
        rows = result.rows()
        assert {"method", "qps", "p50_ms", "p95_ms", "p99_ms"} <= set(rows[0])
        json.dumps(result.to_dict())  # JSON-serializable end to end


class TestValidation:
    def test_no_methods_rejected(self, tiny_wiki, trace):
        with pytest.raises(EvaluationError):
            run_workload(tiny_wiki, trace, methods=[])

    def test_config_for_unreplayed_method_rejected(self, tiny_wiki, trace):
        with pytest.raises(EvaluationError, match="not replayed"):
            run_workload(tiny_wiki, trace, methods=["tsf"],
                         configs={"sling": {}})

    def test_unknown_method_rejected(self, tiny_wiki, trace):
        with pytest.raises(ConfigurationError):
            run_workload(tiny_wiki, trace, methods=["no-such-method"])

    def test_bad_workers_rejected(self, tiny_wiki, trace):
        with pytest.raises(ConfigurationError):
            run(tiny_wiki, trace, workers=0)


class TestLatencyHistogram:
    def test_percentiles_and_summary(self):
        h = LatencyHistogram()
        for ms in range(1, 101):
            h.record(ms / 1000)
        assert h.count == 100
        assert h.percentile(50) == pytest.approx(0.0505, abs=1e-3)
        assert h.percentile(99) == pytest.approx(0.099, abs=1e-2)
        summary = h.summary()
        assert summary["p95_s"] <= summary["p99_s"] <= summary["max_s"]

    def test_empty_histogram_is_zero(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.percentile(50) == 0.0
        assert h.mean == 0.0

    def test_negative_sample_rejected(self):
        with pytest.raises(EvaluationError):
            LatencyHistogram().record(-1.0)

    def test_bad_percentile_rejected(self):
        with pytest.raises(EvaluationError):
            LatencyHistogram().percentile(101)

    def test_merge_and_buckets(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(0.001)
        b.record(0.01)
        a.merge(b)
        assert a.count == 2
        assert sum(a.bucket_counts()) == 2

    def test_outliers_clamp_into_end_buckets(self):
        h = LatencyHistogram()
        h.record(0.0)        # below the 1µs bucket floor
        h.record(1_000.0)    # above the 100s bucket ceiling
        counts = h.bucket_counts()
        assert sum(counts) == h.count == 2  # nothing silently dropped
        assert counts[0] == 1 and counts[-1] == 1
        assert h.max == 1_000.0  # the summary still reports the true extreme


class TestProcessExecutor:
    def test_digests_stable_across_runs(self, tiny_wiki, trace):
        first = run(tiny_wiki, trace, workers=2, executor="process")
        second = run(tiny_wiki, trace, workers=2, executor="process")
        assert [r.digest for r in first.reports] == [r.digest for r in second.reports]

    def test_matches_sequential_executor_on_readonly_trace(self, tiny_wiki):
        """No updates means no epoch rebuilds: both executors run identical
        replica streams over identical positional shares, so the digests
        agree bit for bit across the process boundary."""
        readonly = generate_workload(
            tiny_wiki, num_ops=40, read_fraction=1.0, zipf_s=1.0, seed=21
        )
        oracle = run(tiny_wiki, readonly, workers=2, executor="sequential")
        processes = run(tiny_wiki, readonly, workers=2, executor="process")
        assert [r.digest for r in oracle.reports] == \
            [r.digest for r in processes.reports]

    def test_every_op_accounted(self, tiny_wiki, trace):
        result = run(tiny_wiki, trace, workers=2, executor="process")
        for report in result.reports:
            assert report.executor == "process"
            assert report.num_queries == trace.num_queries
            assert report.num_updates == trace.num_updates
            assert report.latency.count == trace.num_queries
            assert report.qps > 0

    def test_unknown_executor_rejected(self, tiny_wiki, trace):
        for executor in ("coroutine", "thread"):
            with pytest.raises(EvaluationError, match="executor"):
                run(tiny_wiki, trace, executor=executor)


class TestMaintenanceMatrix:
    """Update-heavy replays across executor × maintenance combinations.

    Both executors run the pool's one dispatch and maintenance schedule,
    so process and sequential replays are the *same* computation:
    reports agree bit for bit, timings aside, on either maintenance path.
    """

    @pytest.fixture(scope="class")
    def heavy_trace(self, tiny_wiki):
        """Update-heavy: at read_fraction 0.5, half the ops mutate edges."""
        trace = generate_workload(
            tiny_wiki, num_ops=60, read_fraction=0.5, zipf_s=1.1, seed=21
        )
        assert trace.num_updates > 0
        return trace

    def tsf(self, graph, trace, **kwargs):
        return run(
            graph, trace, methods=["tsf"], configs={"tsf": CONFIGS["tsf"]},
            workers=2, **kwargs,
        ).reports[0]

    @pytest.mark.parametrize("cache_size", [0, 128])
    def test_auto_matches_explicit_delta_under_updates(
        self, tiny_wiki, heavy_trace, cache_size
    ):
        auto = self.tsf(
            tiny_wiki, heavy_trace, executor="process", cache_size=cache_size
        )
        delta = self.tsf(
            tiny_wiki, heavy_trace, executor="process",
            maintenance="delta", cache_size=cache_size,
        )
        assert auto.digest == delta.digest
        assert auto.maintenance == delta.maintenance == "delta"
        assert delta.delta_syncs > 0
        assert delta.epochs == 0  # no epoch ever published

    def test_process_delta_matches_sequential_oracle(
        self, tiny_wiki, heavy_trace
    ):
        process = self.tsf(
            tiny_wiki, heavy_trace, executor="process",
            maintenance="delta", cache_size=128,
        )
        oracle = self.tsf(
            tiny_wiki, heavy_trace, executor="sequential",
            maintenance="delta", cache_size=128,
        )
        assert process.digest == oracle.digest

    @pytest.mark.parametrize("maintenance", ["delta", "rebuild"])
    def test_each_maintenance_mode_is_reproducible(
        self, tiny_wiki, heavy_trace, maintenance
    ):
        first = self.tsf(
            tiny_wiki, heavy_trace, executor="process", maintenance=maintenance
        )
        second = self.tsf(
            tiny_wiki, heavy_trace, executor="process", maintenance=maintenance
        )
        assert first.digest == second.digest
        assert first.maintenance == maintenance

    def test_rebuild_matches_sequential_oracle(self, tiny_wiki, heavy_trace):
        process = self.tsf(
            tiny_wiki, heavy_trace, executor="process", maintenance="rebuild"
        )
        oracle = self.tsf(
            tiny_wiki, heavy_trace, executor="sequential", maintenance="rebuild"
        )
        assert process.digest == oracle.digest
        assert process.epochs > 0

    @pytest.mark.parametrize("cache_size", [0, 256])
    @pytest.mark.parametrize("maintenance", ["auto", "rebuild"])
    def test_reports_match_across_executors(self, maintenance, cache_size):
        """Process and sequential replays produce equal reports
        (counters, cache, staleness and digests) apart from timings, for
        index-free and delta-capable methods alike."""
        graph = erdos_renyi_graph(150, num_edges=600, seed=7)
        trace = generate_workload(graph, num_ops=300, read_fraction=0.85, seed=1)
        assert trace.num_updates == 47
        configs = {
            "probesim": {"eps_a": 0.3, "num_walks": 40, "seed": 11},
            "mc": {"num_walks": 20, "seed": 11},
            "tsf": CONFIGS["tsf"],
        }
        timing = {
            "wall_seconds", "qps", "latency", "maintenance_seconds",
            "maintenance_per_update_s", "metrics",  # metrics embed qps/pXX
        }

        def reports(executor):
            result = run(
                graph, trace, methods=list(configs), configs=configs,
                workers=2, executor=executor, maintenance=maintenance,
                cache_size=cache_size,
            )
            assert all(r.executor == executor for r in result.reports)
            return [
                {k: v for k, v in report.items()
                 if k not in timing and k != "executor"}
                for report in result.to_dict()["reports"]
            ]

        oracle = reports("sequential")
        assert reports("process") == oracle
        assert all(r["epochs"] > 0 for r in oracle[:2])  # index-free: rebuilt
        tsf = oracle[-1]
        expected = "delta" if maintenance == "auto" else "rebuild"
        assert tsf["maintenance"] == expected
        assert tsf["incremental_notifications"] == (
            trace.num_updates if expected == "delta" else 0
        )

    def test_delta_keeps_hot_keys_warm(self, tiny_wiki):
        """Fine-grained invalidation beats the epoch flush on hit rate:
        same Zipf-hot update-heavy trace, strictly more cache hits through
        the delta path than through forced rebuilds."""
        trace = generate_workload(
            tiny_wiki, num_ops=80, read_fraction=0.6, zipf_s=1.4, seed=27
        )
        delta = self.tsf(
            tiny_wiki, trace, executor="sequential",
            maintenance="delta", cache_size=256,
        )
        rebuild = self.tsf(
            tiny_wiki, trace, executor="sequential",
            maintenance="rebuild", cache_size=256,
        )
        assert delta.cache["hit_rate"] > rebuild.cache["hit_rate"]

    def test_unknown_maintenance_rejected(self, tiny_wiki, heavy_trace):
        with pytest.raises(EvaluationError, match="maintenance"):
            run(tiny_wiki, heavy_trace, maintenance="lazy")


class TestResultCache:
    @pytest.fixture(scope="class")
    def hot_trace(self, tiny_wiki):
        """Read-heavy Zipf traffic — the shape caching exists for (update
        batches bump the cache epoch, so write-heavy traces rarely hit)."""
        return generate_workload(
            tiny_wiki, num_ops=120, read_fraction=0.97, zipf_s=1.3, seed=21
        )

    def test_zipf_trace_produces_hits(self, tiny_wiki, hot_trace):
        result = run(tiny_wiki, hot_trace, workers=2, cache_size=256)
        cache = result.reports[0].cache
        assert cache["hits"] > 0
        assert 0.0 < cache["hit_rate"] < 1.0

    def test_cache_preserves_digest_reproducibility(self, tiny_wiki, trace):
        first = run(tiny_wiki, trace, workers=2, cache_size=256)
        second = run(tiny_wiki, trace, workers=2, cache_size=256)
        assert [r.digest for r in first.reports] == [r.digest for r in second.reports]

    def test_updates_invalidate_the_cache(self, tiny_wiki, trace):
        assert trace.num_updates > 0
        result = run(
            tiny_wiki, trace, methods=["probesim-native"],
            configs={"probesim-native": CONFIGS["probesim-native"]},
            cache_size=256,
        )
        assert result.reports[0].cache["invalidations"] > 0

    def test_process_executor_caches_too(self, tiny_wiki, hot_trace):
        result = run(
            tiny_wiki, hot_trace, methods=["probesim-native"],
            configs={"probesim-native": CONFIGS["probesim-native"]},
            workers=2, executor="process", cache_size=256,
        )
        report = result.reports[0]
        assert report.cache["hits"] > 0
        assert report.cache_size == 256

    def test_cache_off_reports_empty(self, tiny_wiki, trace):
        result = run(tiny_wiki, trace)
        assert result.reports[0].cache == {}

    def test_negative_cache_rejected(self, tiny_wiki, trace):
        with pytest.raises(EvaluationError):
            run(tiny_wiki, trace, cache_size=-1)
