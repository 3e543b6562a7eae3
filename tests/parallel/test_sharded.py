"""ShardedSimRankService: routing, bit-exactness oracles, shard boundaries.

The load-bearing contracts, mirroring ``test_pool.py`` one level up:

- for every shard count P, the process executor is bit-identical to the
  sequential oracle (same partition, same per-shard schedule);
- P=1 is bit-identical to the unsharded ``ParallelSimRankService`` — the
  anchor tying the shard layer to everything PRs 4–6 pinned;
- an update touches the caches and delta logs of its *owning* shards
  only: spanning updates invalidate both sides, everyone else stays warm.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, QueryError
from repro.graph.csr import CSRGraph
from repro.parallel.partition import Partition, make_partition
from repro.parallel.pool import ParallelSimRankService
from repro.parallel.sharded import ShardedSimRankService
from repro.workloads import generate_workload, run_workload

METHOD = "probesim-native"
CONFIG = {METHOD: {"eps_a": 0.3, "num_walks": 40, "seed": 11}}
QUERIES = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]

INCREMENTAL = "tsf"
INCREMENTAL_CONFIG = {INCREMENTAL: {"rg": 12, "rq": 3, "depth": 5, "seed": 11}}


def make_sharded(graph, executor, shards, workers=2, **kwargs):
    return ShardedSimRankService(
        graph.copy(), methods=(METHOD,), configs=CONFIG,
        shards=shards, workers=workers, executor=executor, **kwargs,
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
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_process_matches_sequential_per_shard_count(
        self, tiny_wiki, shards
    ):
        with make_sharded(tiny_wiki, "process", shards, workers=1) as proc, \
                make_sharded(tiny_wiki, "sequential", shards, workers=1) as seq:
            for got, want in zip(
                collect(proc, with_updates=True),
                collect(seq, with_updates=True),
            ):
                np.testing.assert_array_equal(got, want)

    def test_one_shard_matches_unsharded_service(self, tiny_wiki):
        for executor in ("sequential", "process"):
            with ParallelSimRankService(
                tiny_wiki.copy(), methods=(METHOD,), configs=CONFIG,
                workers=2, executor=executor,
            ) as flat, make_sharded(tiny_wiki, executor, shards=1) as sharded:
                for got, want in zip(
                    collect(sharded, with_updates=True),
                    collect(flat, with_updates=True),
                ):
                    np.testing.assert_array_equal(got, want)

    def test_runs_are_reproducible(self, tiny_wiki):
        with make_sharded(tiny_wiki, "sequential", 3) as first:
            a = collect(first, with_updates=True)
        with make_sharded(tiny_wiki, "sequential", 3) as second:
            b = collect(second, with_updates=True)
        for got, want in zip(a, b):
            np.testing.assert_array_equal(got, want)

    def test_degree_partition_is_deterministic_too(self, tiny_wiki):
        with make_sharded(tiny_wiki, "sequential", 2, partition="degree") as a, \
                make_sharded(
                    tiny_wiki, "sequential", 2, partition="degree"
                ) as b:
            for got, want in zip(collect(a), collect(b)):
                np.testing.assert_array_equal(got, want)


class TestWorkloadDigests:
    """Driver digests over full traces — the acceptance-criteria oracle."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("read_fraction", [1.0, 0.5])
    def test_process_digest_matches_sequential(
        self, tiny_wiki, shards, read_fraction
    ):
        trace = generate_workload(
            tiny_wiki, num_ops=30, read_fraction=read_fraction,
            zipf_s=1.1, max_query_batch=6, seed=7,
        )
        digests = [
            run_workload(
                tiny_wiki, trace, [METHOD], configs=CONFIG, workers=1,
                executor=executor, shards=shards, cache_size=8,
            ).reports[0].digest
            for executor in ("sequential", "process")
        ]
        assert digests[0] == digests[1]

    def test_one_shard_digest_matches_unsharded(self, tiny_wiki):
        trace = generate_workload(
            tiny_wiki, num_ops=30, read_fraction=0.5, zipf_s=1.1,
            max_query_batch=6, seed=7,
        )
        sharded = run_workload(
            tiny_wiki, trace, [METHOD], configs=CONFIG, workers=2,
            executor="sequential", shards=1,
        ).reports[0]
        flat = run_workload(
            tiny_wiki, trace, [METHOD], configs=CONFIG, workers=2,
            executor="sequential",
        ).reports[0]
        assert sharded.digest == flat.digest

    def test_thread_executor_rejects_shards(self, tiny_wiki):
        trace = generate_workload(tiny_wiki, num_ops=10, seed=7)
        from repro.errors import EvaluationError
        with pytest.raises(EvaluationError, match="thread"):
            run_workload(
                tiny_wiki, trace, [METHOD], configs=CONFIG,
                executor="thread", shards=2,
            )


class TestShardBoundaries:
    def _two_shard_incremental(self, graph, **kwargs):
        return ShardedSimRankService(
            graph.copy(), methods=(INCREMENTAL,), configs=INCREMENTAL_CONFIG,
            shards=2, workers=1, executor="sequential", cache_size=16,
            **kwargs,
        )

    def test_spanning_update_invalidates_both_shard_caches(self, tiny_wiki):
        with self._two_shard_incremental(tiny_wiki) as service:
            owner = service.partition.owner
            source = int(np.flatnonzero(owner == 0)[0])
            target = next(
                int(node) for node in np.flatnonzero(owner == 1)
                if not service.graph.has_edge(source, int(node))
            )
            service.single_source(source)
            service.single_source(target)
            assert len(service.shard_services[0].cache) == 1
            assert len(service.shard_services[1].cache) == 1
            service.apply_edges(added=[(source, target)])
            for shard in (0, 1):
                snap = service.shard_services[shard].cache.snapshot()
                assert snap["invalidations"] >= 1, f"shard {shard} kept stale entries"

    def test_update_leaves_non_owning_shards_warm(self, tiny_wiki):
        with self._two_shard_incremental(tiny_wiki) as service:
            owner = service.partition.owner
            shard0 = np.flatnonzero(owner == 0)
            source, target = (
                int(shard0[0]),
                next(
                    int(n) for n in shard0[1:]
                    if not service.graph.has_edge(int(shard0[0]), int(n))
                ),
            )
            # warm a far-away shard-1 entry, then update entirely inside
            # shard 0: shard 1's cache must not turn over
            remote = int(np.flatnonzero(owner == 1)[-1])
            service.single_source(remote)
            service.apply_edges(added=[(source, target)])
            assert service.shard_services[1].cache.snapshot()["invalidations"] == 0
            before = service.shard_services[1].cache.snapshot()["hits"]
            service.single_source(remote)
            assert (
                service.shard_services[1].cache.snapshot()["hits"] == before + 1
            )

    def test_empty_shard_is_legal_and_unqueried(self, diamond):
        owner = np.zeros(diamond.num_nodes, dtype=np.int64)
        part = Partition(owner, num_shards=3, strategy="hash")  # 1, 2 empty
        with ShardedSimRankService(
            diamond.copy(), methods=(METHOD,), configs=CONFIG,
            shards=3, partition=part, workers=1, executor="sequential",
        ) as service:
            assert service.partition.counts() == [4, 0, 0]
            result = service.single_source(0)
            assert result.score(0) == 1.0
            assert service.shard_services[1].stats.queries == 0
            assert service.shard_services[2].stats.queries == 0

    def test_more_shards_than_nodes(self, diamond):
        with ShardedSimRankService(
            diamond.copy(), methods=(METHOD,), configs=CONFIG,
            shards=9, workers=1, executor="sequential",
        ) as service:
            results = service.single_source_many(list(range(4)))
            assert [int(r.query) for r in results] == [0, 1, 2, 3]
            service.apply_edges(added=[(0, 2)])
            assert service.single_source(2).score(2) == 1.0

    def test_batch_merges_back_in_caller_order(self, tiny_wiki):
        with make_sharded(tiny_wiki, "sequential", 4, workers=1) as service:
            results = service.single_source_many(QUERIES)
            assert [int(r.query) for r in results] == QUERIES

    def test_queries_route_to_owner_only(self, tiny_wiki):
        with make_sharded(tiny_wiki, "sequential", 2, workers=1) as service:
            node = 7
            owner = service.partition.owner_of(node)
            service.single_source(node)
            service.topk(node, 3)
            assert service.shard_services[owner].stats.queries == 2
            assert service.shard_services[1 - owner].stats.queries == 0


class TestServiceSurface:
    def test_merged_stats_and_router_counters(self, tiny_wiki):
        with make_sharded(tiny_wiki, "sequential", 2, workers=1) as service:
            service.single_source_many(QUERIES)
            service.apply_edges(added=[(0, 9)])
            stats = service.stats
            assert stats.queries == len(QUERIES)
            # one logical update, even if it spanned two shards
            assert stats.updates_applied == 1
            assert stats.syncs == 1
            assert service.epoch >= 1

    def test_cache_view_merges_shards(self, tiny_wiki):
        with make_sharded(
            tiny_wiki, "sequential", 2, workers=1, cache_size=8
        ) as service:
            assert service.cache.enabled
            service.single_source_many(QUERIES)
            service.single_source_many(QUERIES)
            snap = service.cache.snapshot()
            per_shard = [
                s.cache.snapshot() for s in service.shard_services
            ]
            assert snap["hits"] == sum(s["hits"] for s in per_shard)
            assert snap["size"] == sum(s["size"] for s in per_shard)
            assert 0.0 < snap["hit_rate"] <= 1.0

    def test_cache_disabled_by_default(self, tiny_wiki):
        with make_sharded(tiny_wiki, "sequential", 2, workers=1) as service:
            assert not service.cache.enabled

    def test_topk_many(self, tiny_wiki):
        with make_sharded(tiny_wiki, "sequential", 2, workers=1) as service:
            tops = service.topk_many(QUERIES[:4], k=3)
            assert len(tops) == 4
            assert all(len(t.scores) <= 3 for t in tops)

    def test_frozen_graph_rejects_updates(self, tiny_wiki):
        csr = CSRGraph.from_digraph(tiny_wiki)
        with ShardedSimRankService(
            csr, methods=(METHOD,), configs=CONFIG,
            shards=2, workers=1, executor="sequential",
        ) as service:
            assert service.single_source(3).score(3) == 1.0
            with pytest.raises(ConfigurationError, match="frozen"):
                service.apply_edges(added=[(0, 9)])

    def test_query_validation(self, tiny_wiki):
        with make_sharded(tiny_wiki, "sequential", 2, workers=1) as service:
            with pytest.raises(QueryError, match="out of range"):
                service.single_source(tiny_wiki.num_nodes)
            with pytest.raises(QueryError):
                service.single_source("nope")
            with pytest.raises(ConfigurationError, match="no method"):
                service.single_source(0, method="missing")

    def test_partition_instance_must_match(self, tiny_wiki):
        part = make_partition(tiny_wiki, 3, "hash")
        with pytest.raises(ConfigurationError, match="shards"):
            ShardedSimRankService(
                tiny_wiki.copy(), methods=(METHOD,), configs=CONFIG,
                shards=2, partition=part, workers=1, executor="sequential",
            )

    def test_shards_must_be_positive(self, tiny_wiki):
        with pytest.raises(ConfigurationError):
            ShardedSimRankService(
                tiny_wiki.copy(), methods=(METHOD,), configs=CONFIG,
                shards=0, workers=1, executor="sequential",
            )

    def test_close_is_idempotent_and_context_managed(self, tiny_wiki):
        service = make_sharded(tiny_wiki, "sequential", 2, workers=1)
        with service:
            service.single_source(0)
        service.close()
        service.close()

    def test_repr_names_the_shape(self, tiny_wiki):
        with make_sharded(tiny_wiki, "sequential", 2, workers=1) as service:
            text = repr(service)
            assert "shards=2" in text and "hash" in text
