"""Worker processes exit on their own when their coordinator is SIGKILLed.

A forked worker inherits the coordinator's pipe ends, so a coordinator
killed outright never shows up as EOF; the worker notices that it was
reparented instead (:data:`repro.parallel.pool.PARENT_POLL`).  These
tests kill the coordinator of an in-memory and of a store-backed process
pool in a subprocess and require every child (workers and, for the
in-memory pool, the ``resource_tracker``) to be gone within
:data:`EXIT_BOUND` seconds, with no ``psim-*`` segment left behind.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.parallel.pool import PARENT_POLL

SRC_ROOT = str(Path(repro.__file__).parents[1])

#: seconds every child of a SIGKILLed coordinator gets to exit
EXIT_BOUND = 5.0

# Starts a two-worker process pool over a tiny graph ("graph") or store
# ("store", in the directory given as the second argument), answers one
# query, prints its worker pids and waits to be killed.
COORDINATOR = """\
import json, os, sys, time
from repro.datasets import load_dataset
from repro.parallel.pool import ParallelSimRankService
from repro.storage import PersistentGraphStore

graph = load_dataset("wiki-vote", scale="tiny")
store = None
if sys.argv[1] == "store":
    store = PersistentGraphStore.create(os.path.join(sys.argv[2], "s"), graph)
    graph = None
pool = ParallelSimRankService(
    graph, store=store, methods=("probesim-native",),
    configs={"probesim-native": {"eps_a": 0.3, "num_walks": 40, "seed": 11}},
    workers=2, executor="process",
)
pool.single_source(3)
print(json.dumps([worker.process.pid for worker in pool._workers]), flush=True)
time.sleep(600)
"""


def children_of(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and parent_of(int(entry)) == pid:
            found.append(int(entry))
    return found


def parent_of(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return int(handle.read().rsplit(")", 1)[1].split()[1])
    except (OSError, IndexError, ValueError):
        return None


def running(pid: int) -> bool:
    """Alive and not a zombie (an exited child nobody reaped yet)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def segments(owner: int) -> list[str]:
    prefix = f"psim-{owner}-"
    return sorted(name for name in os.listdir("/dev/shm") if name.startswith(prefix))


@pytest.mark.skipif(not os.path.isdir("/proc") or not os.path.isdir("/dev/shm"),
                    reason="needs /proc and /dev/shm")
@pytest.mark.parametrize("mode", ["graph", "store"])
def test_workers_exit_when_the_coordinator_is_killed(mode, tmp_path):
    assert PARENT_POLL < EXIT_BOUND
    coordinator = subprocess.Popen(
        [sys.executable, "-c", COORDINATOR, mode, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=SRC_ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    children: list[int] = []
    workers: list[int] = []
    try:
        line = coordinator.stdout.readline()
        assert line, coordinator.stderr.read()
        workers = json.loads(line)
        children = children_of(coordinator.pid)
        assert set(workers) <= set(children)
        coordinator.kill()
        coordinator.wait(timeout=30)
        deadline = time.monotonic() + EXIT_BOUND
        while any(map(running, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in children if running(pid)]
        assert survivors == [], (
            f"children {survivors} of the killed coordinator outlived "
            f"{EXIT_BOUND}s"
        )
        assert segments(coordinator.pid) == []
    finally:
        if coordinator.poll() is None:
            coordinator.kill()
            coordinator.wait(timeout=30)
        # workers first: the resource tracker then sees EOF and unlinks
        # any segment the killed coordinator left before it exits
        for pid in sorted(children, key=lambda pid: pid not in workers):
            if running(pid):
                os.kill(pid, signal.SIGKILL)
                time.sleep(0.2)
        coordinator.stdout.close()
        coordinator.stderr.close()
