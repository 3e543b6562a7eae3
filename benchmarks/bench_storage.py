"""E-C4 — the persistent tier: ingest throughput, warm attach vs cold start.

The storage tier's performance claims, measured on one synthetic graph:

- **ingest**: the out-of-core pipeline (parse → spill → counting-sort →
  snapshot) must convert an edge list at a throughput that makes multi-GB
  inputs practical, and its output must be **bit-identical** to the
  in-memory reference path (asserted, not assumed);
- **warm attach vs cold start**: serving from a snapshot is an ``mmap`` +
  header parse — O(1) in the graph size — where the cold path re-reads the
  edge list and rebuilds the CSR every restart.  The speedup is the whole
  reason the snapshot format exists;
- **recovery**: replaying a snapshot + WAL tail after a crash, digest-
  checked against the sequentially applied oracle.

Usage::

    python benchmarks/bench_storage.py                  # full preset
    python benchmarks/bench_storage.py --smoke          # seconds
    python benchmarks/bench_storage.py --json out.json  # perf gate

The run pins itself to ``CORE_BUDGET`` cores and records the pinned
count as ``cores``.  The ``--json`` report carries a flat ``gate`` block
consumed by ``tools/check_bench_regression.py`` (the nightly
perf-regression gate).
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import emit_table, pin_cores  # noqa: E402

from repro.graph import CSRGraph, read_edge_list, write_edge_list  # noqa: E402
from repro.graph.dynamic import EdgeUpdate, apply_update  # noqa: E402
from repro.graph.generators import erdos_renyi_graph  # noqa: E402
from repro.storage import (  # noqa: E402
    PersistentGraphStore,
    attach_snapshot,
    ingest_edge_list,
    recover,
)

SEED = 2017
#: warm attach costs ~0.2 ms and its first samples run cold; six runs of
#: a 25-sample median read 0.126–0.275 ms, wider than the 20% gate, so
#: the median is taken over many more attaches (each is sub-millisecond)
ATTACH_REPEATS = 201
#: ingest and cold start take seconds but swing ~20% run to run on a
#: shared box, so each reports the median of a few samples
STAGE_REPEATS = 3
WAL_TAIL_UPDATES = 64
#: cores the run pins itself to; the report records the pinned count as
#: ``cores``, so any box with at least this many cores can gate.
CORE_BUDGET = 1

#: (num_nodes, num_edges) presets; smoke finishes in seconds.
PRESETS = {
    "full": (30_000, 240_000),
    "smoke": (1_000, 6_000),
}


def build_edge_list(workdir: Path, smoke: bool) -> Path:
    n, m = PRESETS["smoke" if smoke else "full"]
    graph = erdos_renyi_graph(n, num_edges=m, seed=SEED)
    path = workdir / "graph.txt"
    write_edge_list(graph, path)
    return path


def timed(fn, repeats: int = 1):
    """``fn()``'s last result and the median of ``repeats`` timed calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return result, statistics.median(samples)


def bench_ingest(source: Path, out: Path) -> dict:
    """Out-of-core ingest, digest-checked against the in-memory path."""
    stats, seconds = timed(lambda: ingest_edge_list(source, out), STAGE_REPEATS)
    reference = CSRGraph.from_digraph(read_edge_list(source)).digest()
    assert stats.digest == reference, (
        "out-of-core ingest drifted from write_snapshot(read_edge_list(...))"
    )
    return {
        "stage": "ingest",
        "seconds": round(seconds, 4),
        "edges_per_s": round(stats.edges / seconds),
        "spill_mb": round(stats.spill_bytes / 2**20, 2),
        "digest": stats.digest[:16],
    }


def bench_cold_start(source: Path) -> dict:
    """The pre-storage restart path: re-read the text, rebuild the CSR."""
    csr, seconds = timed(
        lambda: CSRGraph.from_digraph(read_edge_list(source)), STAGE_REPEATS
    )
    return {
        "stage": "cold_start",
        "seconds": round(seconds, 4),
        "edges_per_s": round(csr.num_edges / seconds),
        "spill_mb": 0.0,
        "digest": csr.digest()[:16],
    }


def bench_warm_attach(snapshot: Path) -> dict:
    """The storage restart path: mmap the snapshot, zero-copy views."""
    samples = []
    digest = ""
    for _ in range(ATTACH_REPEATS):
        start = time.perf_counter()
        mapped = attach_snapshot(snapshot)
        graph = mapped.graph()
        edges = graph.num_edges
        samples.append(time.perf_counter() - start)
        digest = mapped.header.digest
        del graph
        mapped.close()
    seconds = statistics.median(samples)
    return {
        "stage": "warm_attach",
        "seconds": round(seconds, 6),
        "edges_per_s": round(edges / seconds),
        "spill_mb": 0.0,
        "digest": digest[:16],
    }


def bench_recovery(workdir: Path, source: Path) -> dict:
    """Crash recovery: snapshot + WAL tail replay, oracle-checked."""
    base = CSRGraph.from_digraph(read_edge_list(source)).to_digraph()
    updates = [
        EdgeUpdate("insert", i, (i * 7 + 1) % base.num_nodes)
        for i in range(WAL_TAIL_UPDATES)
        if i != (i * 7 + 1) % base.num_nodes
        and not base.has_edge(i, (i * 7 + 1) % base.num_nodes)
    ]
    store_dir = workdir / "store"
    with PersistentGraphStore.create(store_dir, base) as store:
        store.log(updates)

    start = time.perf_counter()
    with recover(store_dir) as state:
        recovered = state.digest()
        edges = state.snapshot.header.num_edges + len(state.tail)
    seconds = time.perf_counter() - start

    oracle = base.copy()
    for update in updates:
        apply_update(oracle, update)
    assert recovered == CSRGraph.from_digraph(oracle).digest(), (
        "recovery drifted from the sequentially applied oracle"
    )
    return {
        "stage": "recover",
        "seconds": round(seconds, 4),
        "edges_per_s": round(edges / seconds),
        "spill_mb": 0.0,
        "digest": recovered[:16],
    }


def run_bench(smoke: bool) -> dict:
    cores = pin_cores(CORE_BUDGET)
    preset = "smoke" if smoke else "full"
    with tempfile.TemporaryDirectory(prefix="bench-storage-") as tmp:
        workdir = Path(tmp)
        source = build_edge_list(workdir, smoke)
        snapshot = workdir / "graph.csr"
        rows = [
            bench_ingest(source, snapshot),
            bench_cold_start(source),
            bench_warm_attach(snapshot),
            bench_recovery(workdir, source),
        ]
    n, m = PRESETS[preset]
    emit_table(
        "storage", rows,
        (f"Persistent tier: ingest / cold start / warm attach / recovery "
         f"on {n} nodes, {m} edges ({preset} preset, "
         f"cores={cores})"),
    )
    by_stage = {row["stage"]: row for row in rows}
    assert by_stage["ingest"]["digest"] == by_stage["cold_start"]["digest"]
    assert by_stage["ingest"]["digest"] == by_stage["warm_attach"]["digest"]

    gate = {
        f"seconds:{stage}": by_stage[stage]["seconds"]
        for stage in ("ingest", "cold_start", "warm_attach", "recover")
    }
    derived = {
        "speedup:attach-vs-cold": round(
            by_stage["cold_start"]["seconds"]
            / max(by_stage["warm_attach"]["seconds"], 1e-9), 1
        ),
    }
    gate.update(derived)
    return {
        "bench": "storage",
        "preset": preset,
        "graph": {"nodes": n, "edges": m, "seed": SEED},
        "cores": cores,
        "series": rows,
        "derived": derived,
        "gate": gate,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny preset: seconds, for the CI bench-smoke job")
    parser.add_argument("--json", default=None,
                        help="write the machine-readable report here")
    args = parser.parse_args(argv)

    payload = run_bench(args.smoke)
    print(f"\nwarm attach is {payload['derived']['speedup:attach-vs-cold']}x "
          "faster than the cold edge-list restart (digest-checked)")
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
