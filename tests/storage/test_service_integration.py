"""The storage tier wired into the serving layer: durable, still bit-exact.

Three integration contracts:

- a snapshot-backed service is bit-identical to one built from the same
  graph in memory (and sequential == process over the mmap path);
- a store-backed service write-aheads every acknowledged burst, so killing
  it at any point recovers a burst boundary; rebuild syncs checkpoint;
- the workload driver replays identically from a snapshot file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, EvaluationError
from repro.graph.csr import CSRGraph, as_csr
from repro.parallel.pool import ParallelSimRankService
from repro.storage import PersistentGraphStore, recover, write_snapshot
from repro.workloads import generate_workload, run_workload

METHOD = "probesim-native"
CONFIG = {METHOD: {"eps_a": 0.3, "num_walks": 40, "seed": 11}}
QUERIES = [3, 1, 4, 15, 92, 65, 7]

DELTA_METHOD = "probesim-walkindex"
DELTA_CONFIG = {DELTA_METHOD: {"eps_a": 0.3, "delta": 0.1, "seed": 11}}


def canonical(graph):
    """The canonical DiGraph form snapshots round-trip through."""
    return CSRGraph.from_digraph(graph).to_digraph()


def canonical_snapshot(graph, path):
    """A snapshot holding the *canonical* bytes of ``graph``."""
    write_snapshot(as_csr(canonical(graph)), path)
    return path


def scores_of(service, queries=QUERIES):
    return [service.single_source(q).scores.copy() for q in queries]


class TestSnapshotServing:
    @pytest.mark.parametrize("executor", ["sequential", "process"])
    def test_bit_identical_to_in_memory_service(self, tiny_wiki, tmp_path, executor):
        path = canonical_snapshot(tiny_wiki, tmp_path / "wiki.csr")
        with ParallelSimRankService(
            snapshot=path, methods=(METHOD,), configs=CONFIG,
            workers=2, executor=executor,
        ) as mapped, ParallelSimRankService(
            canonical(tiny_wiki), methods=(METHOD,), configs=CONFIG,
            workers=2, executor=executor,
        ) as live:
            for got, want in zip(scores_of(mapped), scores_of(live)):
                np.testing.assert_array_equal(got, want)

    def test_snapshot_service_is_read_only(self, tiny_wiki, tmp_path):
        path = canonical_snapshot(tiny_wiki, tmp_path / "wiki.csr")
        with ParallelSimRankService(
            snapshot=path, methods=(METHOD,), configs=CONFIG,
            workers=1, executor="sequential",
        ) as service:
            with pytest.raises(ConfigurationError, match="read-only|frozen|mutable"):
                service.apply_edges(added=[(0, 9)], removed=[])

    def test_constructor_exclusivity(self, tiny_wiki, tmp_path):
        path = canonical_snapshot(tiny_wiki, tmp_path / "wiki.csr")
        with pytest.raises(ConfigurationError, match="without graph"):
            ParallelSimRankService(tiny_wiki, snapshot=path)
        with pytest.raises(ConfigurationError, match="need one of"):
            ParallelSimRankService()
        store_dir = tmp_path / "store"
        with PersistentGraphStore.create(store_dir, tiny_wiki) as store:
            with pytest.raises(ConfigurationError, match="not both"):
                ParallelSimRankService(tiny_wiki, store=store)


class TestStoreBackedService:
    def test_every_burst_is_write_ahead_logged(self, small_graph, tmp_path):
        with PersistentGraphStore.create(tmp_path / "s", small_graph) as store:
            with ParallelSimRankService(
                store=store, methods=(METHOD,), configs=CONFIG,
                workers=1, executor="sequential",
            ) as service:
                service.apply_edges(added=[(5, 2)], removed=[])
                live_digest = CSRGraph.from_digraph(service.graph).digest()
            # the burst is durable: a fresh recovery replays it
            with recover(tmp_path / "s") as state:
                assert state.digest() == live_digest

    def test_rebuild_sync_checkpoints_a_generation(self, small_graph, tmp_path):
        with PersistentGraphStore.create(tmp_path / "s", small_graph) as store:
            with ParallelSimRankService(
                store=store, methods=(METHOD,), configs=CONFIG,
                workers=1, executor="sequential", maintenance="rebuild",
            ) as service:
                service.apply_edges(added=[(5, 2)], removed=[(2, 1)])
                assert store.generation == 2  # compaction checkpointed
                assert store.wal_records == 0  # folded into the snapshot
                live_digest = CSRGraph.from_digraph(service.graph).digest()
            with recover(tmp_path / "s") as state:
                assert state.generation == 2
                assert state.tail == ()
                assert state.digest() == live_digest

    def test_delta_sync_preserves_the_wal_tail(self, small_graph, tmp_path):
        with PersistentGraphStore.create(tmp_path / "s", small_graph) as store:
            with ParallelSimRankService(
                store=store, methods=(DELTA_METHOD,), configs=DELTA_CONFIG,
                workers=1, executor="sequential", maintenance="delta",
            ) as service:
                service.apply_edges(added=[(5, 2)], removed=[])
                service.apply_edges(added=[(0, 3)], removed=[])
                assert store.generation == 1  # no compaction happened
                assert store.wal_records == 2  # both bursts in the tail
                live_digest = CSRGraph.from_digraph(service.graph).digest()
            with recover(tmp_path / "s") as state:
                assert len(state.tail) == 2
                assert state.digest() == live_digest


class TestWorkloadReplayFromSnapshot:
    def workload(self, graph):
        return generate_workload(
            graph, num_ops=30, read_fraction=1.0, zipf_s=1.1, seed=5,
        )

    def test_digest_matches_graph_replay(self, tiny_wiki, tmp_path):
        graph = canonical(tiny_wiki)
        path = canonical_snapshot(tiny_wiki, tmp_path / "wiki.csr")
        trace = self.workload(graph)
        from_graph = run_workload(
            graph, trace, methods=(METHOD,), configs=CONFIG,
            workers=1, executor="sequential",
        )
        from_snapshot = run_workload(
            None, trace, methods=(METHOD,), configs=CONFIG,
            workers=1, executor="sequential", snapshot=path,
        )
        assert [r.digest for r in from_graph.reports] == [
            r.digest for r in from_snapshot.reports
        ]

    def test_validation(self, tiny_wiki, tmp_path):
        graph = canonical(tiny_wiki)
        path = canonical_snapshot(tiny_wiki, tmp_path / "wiki.csr")
        trace = self.workload(graph)
        with pytest.raises(EvaluationError, match="not both"):
            run_workload(graph, trace, (METHOD,), snapshot=path)
        with pytest.raises(EvaluationError, match="need a graph"):
            run_workload(None, trace, (METHOD,))
        processes, oracle = (
            run_workload(
                None, trace, (METHOD,), configs=CONFIG, workers=2,
                executor=executor, snapshot=path,
            )
            for executor in ("process", "sequential")
        )
        assert processes.reports[0].digest == oracle.reports[0].digest
        mutating = generate_workload(
            graph, num_ops=10, read_fraction=0.5, seed=5,
        )
        with pytest.raises(EvaluationError, match="read-only"):
            run_workload(
                None, mutating, (METHOD,), snapshot=path, executor="sequential",
            )
