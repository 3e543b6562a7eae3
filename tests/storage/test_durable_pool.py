"""A durable process pool serves the store's own checkpoint files.

``ParallelSimRankService(store=..., executor="process")`` publishes every
graph generation as the store's snapshot file, which the workers ``mmap``:
no shared-memory copy, so no ``/dev/shm`` entry and no
``resource_tracker`` process.  These tests hold it to the sequential
executor's answers, byte for byte, through bursts, a worker crash, a
start-up with a WAL tail, a failing checkpoint and a restart.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.graph.dynamic import EdgeUpdate
from repro.parallel.pool import ParallelSimRankService
from repro.storage import PersistentGraphStore, recover

METHOD = "probesim-native"
CONFIG = {METHOD: {"eps_a": 0.3, "num_walks": 40, "seed": 11}}
QUERIES = list(range(0, 200, 7))
EXECUTORS = ("sequential", "process")

SRC_ROOT = str(Path(repro.__file__).parents[1])

# Serves a tiny store through a two-worker pool, runs two bursts, and
# prints which /dev/shm entries and resource_tracker children the process
# had during the bursts and after close.  Argument: "store" or "graph".
PROBE_SCRIPT = """\
import json, os, sys, tempfile
from repro.datasets import load_dataset
from repro.parallel.pool import ParallelSimRankService
from repro.storage import PersistentGraphStore

def segments():
    prefix = f"psim-{os.getpid()}-"
    return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))

def trackers():
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                argv = handle.read().split(b"\\0")
        except OSError:
            continue
        # the tracker runs `python [flags] -c "from multiprocessing.
        # resource_tracker import main; ..."`; forked workers share our argv
        if ppid == os.getpid() and any(
            arg.startswith(b"from multiprocessing.resource_tracker") for arg in argv
        ):
            found.append(int(entry))
    return found

graph = load_dataset("wiki-vote", scale="tiny")
config = {"probesim-native": {"eps_a": 0.3, "num_walks": 40, "seed": 11}}
with tempfile.TemporaryDirectory() as root:
    store = None
    if sys.argv[1] == "store":
        store = PersistentGraphStore.create(os.path.join(root, "s"), graph)
        graph = None
    with ParallelSimRankService(
        graph, store=store, methods=("probesim-native",), configs=config,
        workers=2, executor="process",
    ) as pool:
        pool.single_source(3)
        pool.apply_edges(added=[(0, 9), (5, 17)])
        pool.apply_edges(removed=[(0, 9)])
        pool.single_source(3)
        during = {"segments": segments(), "trackers": trackers()}
    if store is not None:
        store.close()
    after = {"segments": segments(), "trackers": trackers()}
print(json.dumps({"during": during, "after": after}))
"""


def probe(mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC_ROOT)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE_SCRIPT, mode],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def fresh_edges(graph, count: int, seed: int) -> list[tuple[int, int]]:
    """``count`` distinct non-edges of ``graph`` (no self-loops), seeded."""
    rng = np.random.default_rng(seed)
    found: list[tuple[int, int]] = []
    while len(found) < count:
        source, target = (int(x) for x in rng.integers(graph.num_nodes, size=2))
        if source != target and not graph.has_edge(source, target) \
                and (source, target) not in found:
            found.append((source, target))
    return found


def served(store, executor: str) -> ParallelSimRankService:
    return ParallelSimRankService(
        store=store, methods=(METHOD,), configs=CONFIG,
        workers=2, executor=executor,
    )


def answers(pool, queries=QUERIES) -> list[bytes]:
    return [r.scores.tobytes() for r in pool.single_source_many(queries)]


def mapped_by(pid: int) -> set[str]:
    with open(f"/proc/{pid}/maps", encoding="utf-8") as handle:
        return {line.split(maxsplit=5)[5].strip() for line in handle
                if len(line.split()) >= 6}


@pytest.fixture()
def stores(tiny_wiki, tmp_path):
    """One fresh store per executor, all holding ``tiny_wiki``."""
    made = {}
    for executor in EXECUTORS:
        made[executor] = PersistentGraphStore.create(tmp_path / executor, tiny_wiki)
    yield made
    for store in made.values():
        store.close()


class TestNoSharedMemory:
    def test_store_pool_makes_no_segment_and_no_tracker(self):
        report = probe("store")
        assert report["during"] == {"segments": [], "trackers": []}
        assert report["after"] == {"segments": [], "trackers": []}

    def test_the_probe_sees_an_in_memory_pools_segment_and_tracker(self):
        """The control: an in-memory pool keeps shared memory and the
        tracker, and still leaves no segment behind."""
        report = probe("graph")
        assert len(report["during"]["segments"]) == 1
        assert len(report["during"]["trackers"]) == 1
        assert report["after"]["segments"] == []


class TestCheckpointServing:
    """Process answers equal a sequential store-backed pool's, byte for byte."""

    def test_through_bursts(self, tiny_wiki, stores):
        bursts = fresh_edges(tiny_wiki, 12, seed=3)
        with served(stores["process"], "process") as pool, \
                served(stores["sequential"], "sequential") as oracle:
            assert answers(pool) == answers(oracle)
            for i in range(0, len(bursts), 4):
                pool.apply_edges(added=bursts[i:i + 4])
                oracle.apply_edges(added=bursts[i:i + 4])
                assert pool.epoch == oracle.epoch == i // 4 + 1
                assert pool._shm.descriptor.snapshot_path == str(
                    stores["process"].snapshot_file
                )
                assert answers(pool) == answers(oracle)
            pool.apply_edges(removed=bursts[:2])
            oracle.apply_edges(removed=bursts[:2])
            assert answers(pool) == answers(oracle)

    def test_a_revived_worker_maps_the_live_checkpoint(self, tiny_wiki, stores):
        bursts = fresh_edges(tiny_wiki, 6, seed=5)
        with served(stores["process"], "process") as pool, \
                served(stores["sequential"], "sequential") as oracle:
            for burst in (bursts[:3], bursts[3:]):
                pool.apply_edges(added=burst)
                oracle.apply_edges(added=burst)
            pool._workers[0].process.kill()
            pool._workers[0].process.join()
            assert answers(pool) == answers(oracle)
            assert pool.stats.worker_restarts == 1
            revived = pool._workers[0].process.pid
            assert str(stores["process"].snapshot_file) in mapped_by(revived)

    def test_start_up_from_a_wal_tail(self, tiny_wiki, stores):
        tail = [EdgeUpdate("insert", s, t) for s, t in fresh_edges(tiny_wiki, 5, seed=9)]
        for store in stores.values():
            store.log(tail)
        with served(stores["process"], "process") as pool, \
                served(stores["sequential"], "sequential") as oracle:
            for store in stores.values():
                # the tail was folded into a checkpoint before serving
                assert (store.generation, store.wal_records) == (2, 0)
            assert pool._shm.descriptor.snapshot_path == str(
                stores["process"].snapshot_file
            )
            assert answers(pool) == answers(oracle)
        with recover(stores["process"].directory) as state:
            assert state.tail == ()
            assert state.snapshot.header.num_edges == tiny_wiki.num_edges + 5

    def test_a_failed_checkpoint_keeps_the_old_generation(
        self, tiny_wiki, stores, monkeypatch
    ):
        burst = fresh_edges(tiny_wiki, 4, seed=13)
        store = stores["process"]
        with served(store, "process") as pool, \
                served(stores["sequential"], "sequential") as oracle:
            before = answers(oracle)
            checkpoint = store.checkpoint

            def failing(graph):
                raise OSError("disk full")

            monkeypatch.setattr(store, "checkpoint", failing)
            with pytest.raises(OSError, match="disk full"):
                pool.apply_edges(added=burst)
            assert pool.epoch == 0
            assert store.generation == 1
            assert answers(pool) == before  # the old generation stays served
            monkeypatch.setattr(store, "checkpoint", checkpoint)
            pool.sync()  # the retry lands the burst, logged exactly once
            oracle.apply_edges(added=burst)
            assert pool.epoch == 1
            assert store.generation == 2
            assert answers(pool) == answers(oracle)
            assert answers(pool) != before


class TestRestart:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_answers_are_equal_before_and_after_a_restart(
        self, tiny_wiki, tmp_path, executor
    ):
        """The restarted pool thaws the checkpoint with its in-rows in the
        order the pre-restart pool served, so walks pick the same
        in-neighbours and every answer is byte-equal."""
        root = tmp_path / "s"
        PersistentGraphStore.create(root, tiny_wiki).close()
        inserts = fresh_edges(tiny_wiki, 20, seed=7)
        everything = list(range(tiny_wiki.num_nodes))
        with PersistentGraphStore.open(root) as store, \
                served(store, executor) as pool:
            for i in range(0, len(inserts), 5):
                pool.apply_edges(added=inserts[i:i + 5])
            before = answers(pool, everything)
        with PersistentGraphStore.open(root) as store, \
                served(store, executor) as pool:
            after = answers(pool, everything)
        assert after == before
