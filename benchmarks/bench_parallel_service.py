"""E-C1 — multi-core QPS scaling of the shared-memory parallel service.

One read-heavy Zipf trace is replayed through the workload driver on both
executors at increasing pool widths, answering the scale-out questions:

- **sequential**: the pool's in-process workers answering their shares
  one after another on the calling thread — no fork or pickling: the
  single-process baseline and the determinism oracle;
- **process**: the same dispatch across worker processes over a
  zero-copy shared-memory graph (:mod:`repro.parallel`) — throughput
  scales with cores;
- **process + cache**: the update-aware result cache in front of the
  process pool, showing the hot-key hit-rate speedup Zipf traffic earns.

Both executors run the pool's one dispatch path, and on each an op's
latency is its own compute time on its worker, not a batch mean.  The standalone run pins itself to ``CORE_BUDGET``
cores and records the pinned count as ``cores``, so a baseline gates on
any box with at least that many cores.  Every (executor, width, cache) arm
is replayed in ``ROUNDS`` interleaved rounds and each row reports the
median round's ``qps`` / ``p50_ms`` / ``p95_ms``: a slow stretch of a
shared box then moves one sample of every arm, not whole rows.  An arm's
digest must be the same in every round.

The headline acceptance number — ``--workers 4`` at ≥ 2x the sequential
executor's single-source QPS on the same trace — only shows on real
multi-core hardware; pass ``--assert-speedup`` to enforce it (CI perf
machines), leave it off on laptops/containers with throttled cores.
Pinned to ``CORE_BUDGET = 2`` cores the process executor can at best
double the sequential executor, so the assert sits at the edge of that
budget.

Usage::

    python benchmarks/bench_parallel_service.py                  # full preset
    python benchmarks/bench_parallel_service.py --smoke          # seconds
    python benchmarks/bench_parallel_service.py --json out.json  # perf gate
    python benchmarks/bench_parallel_service.py --workers 1,2,4,8

The ``--json`` report carries a flat ``gate`` block consumed by
``tools/check_bench_regression.py`` (the nightly perf-regression gate).
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import emit_table, pin_cores  # noqa: E402

from repro.graph.generators import erdos_renyi_graph  # noqa: E402
from repro.workloads import generate_workload, run_workload  # noqa: E402

SEED = 2017
METHOD = "probesim-native"

#: cores the standalone run pins itself to; the report records the pinned
#: count as ``cores``, so any box with at least this many cores can gate.
CORE_BUDGET = 2

#: interleaved replays of every arm; each row is the median of its rounds.
ROUNDS = 3

#: (num_nodes, num_edges, num_ops) presets; smoke finishes in seconds.
PRESETS = {
    "full": (4_000, 16_000, 600),
    "smoke": (300, 1_200, 120),
}


def build_trace(smoke: bool):
    """The shared workload: read-only, Zipf-hot, deterministic."""
    n, m, num_ops = PRESETS["smoke" if smoke else "full"]
    graph = erdos_renyi_graph(n, num_edges=m, seed=SEED)
    trace = generate_workload(
        graph, num_ops=num_ops, read_fraction=1.0, zipf_s=1.1,
        max_query_batch=16, seed=SEED,
    )
    return graph, trace


def method_config(smoke: bool) -> dict:
    walks = 200 if smoke else 400
    return {METHOD: {"eps_a": 0.2, "delta": 0.1, "num_walks": walks, "seed": SEED}}


def replay(graph, trace, smoke: bool, executor: str, workers: int,
           cache_size: int = 0) -> dict:
    """One driver replay; returns the flat row the tables/JSON share."""
    report = run_workload(
        graph, trace, [METHOD], configs=method_config(smoke),
        workers=workers, executor=executor, cache_size=cache_size,
    ).reports[0]
    row = {
        "executor": executor,
        "workers": workers,
        "cache": cache_size,
        "qps": round(report.qps, 1),
        "p50_ms": round(report.latency.percentile(50) * 1e3, 2),
        "p95_ms": round(report.latency.percentile(95) * 1e3, 2),
        "digest": report.digest,
    }
    if report.cache:
        row["hit_rate"] = round(report.cache["hit_rate"], 3)
    return row


def median_row(samples: list) -> dict:
    """One arm's row from its rounds: the median of each timing, after
    checking that every round gave the same answers."""
    first = samples[0]
    assert len({row["digest"] for row in samples}) == 1, (
        f"{first['executor']} w{first['workers']} cache={first['cache']} "
        "answered differently across rounds"
    )
    row = dict(first)
    for key in ("qps", "p50_ms", "p95_ms"):
        row[key] = statistics.median(sample[key] for sample in samples)
    return row


def run_bench(worker_series, smoke: bool, cores: int) -> dict:
    """The full comparison; returns the JSON payload (with the gate block)."""
    graph, trace = build_trace(smoke)
    widest = worker_series[-1]
    arms = [
        (executor, workers, 0)
        for workers in worker_series for executor in ("sequential", "process")
    ]
    cached_arm = ("process", widest, graph.num_nodes)
    samples = {arm: [] for arm in arms + [cached_arm]}
    for _ in range(ROUNDS):
        for arm, rounds in samples.items():
            executor, workers, cache_size = arm
            rounds.append(replay(graph, trace, smoke, executor, workers, cache_size))
    rows = [median_row(samples[arm]) for arm in arms]
    cache_off = median_row(samples[("process", widest, 0)])
    cache_on = median_row(samples[cached_arm])
    preset = "smoke" if smoke else "full"
    emit_table(
        "parallel_service", rows,
        (f"Executor scaling on {trace.num_queries} Zipf queries "
         f"({preset} preset, cores={cores}, median of {ROUNDS} rounds)"),
    )
    emit_table(
        "parallel_service", [cache_off, cache_on],
        f"Update-aware result cache at {widest} process workers",
    )

    def qps_of(executor, workers):
        return next(
            r["qps"] for r in rows
            if r["executor"] == executor and r["workers"] == workers
        )

    # gate metrics are *absolute* QPS/latency numbers (plus the
    # deterministic cache hit rate): against a same-hardware baseline they
    # regress monotonically with a slow commit.  Machine-relative ratios
    # (process-vs-sequential, cache speedup) go under "derived" — informative,
    # but too hardware-shaped to gate at a fixed threshold.
    gate = {}
    for workers in worker_series:
        gate[f"qps:sequential:w{workers}"] = qps_of("sequential", workers)
        gate[f"qps:process:w{workers}"] = qps_of("process", workers)
    for row in rows:
        gate[f"p95_ms:{row['executor']}:w{row['workers']}"] = row["p95_ms"]
    gate[f"qps:process-cached:w{widest}"] = cache_on["qps"]
    gate["hit:rate:cached"] = cache_on.get("hit_rate", 0.0)
    derived = {
        f"speedup:process-vs-sequential:w{workers}": round(
            qps_of("process", workers) / qps_of("sequential", workers), 3
        )
        for workers in worker_series
    }
    derived["speedup:cache"] = round(cache_on["qps"] / cache_off["qps"], 3)
    return {
        "bench": "parallel_service",
        "preset": preset,
        "method": METHOD,
        "cores": cores,
        "rounds": ROUNDS,
        "trace": {"queries": trace.num_queries, "signature": trace.signature()},
        "series": rows,
        "cache": {"off": cache_off, "on": cache_on},
        "derived": derived,
        "gate": gate,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", default="1,2,4,8",
                        help="comma-separated pool widths to sweep")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny preset: seconds, for the CI bench-smoke job")
    parser.add_argument("--json", default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--assert-speedup", action="store_true",
                        help="fail unless process w4 >= 2x sequential QPS "
                             "(needs real multi-core hardware)")
    args = parser.parse_args(argv)
    worker_series = [int(w) for w in args.workers.split(",") if w.strip()]

    cores = pin_cores(CORE_BUDGET)
    payload = run_bench(worker_series, args.smoke, cores)
    digests = {
        (row["executor"], row["workers"]): row["digest"]
        for row in payload["series"]
    }
    for workers in worker_series:
        sequential_digest = digests[("sequential", workers)]
        process_digest = digests[("process", workers)]
        assert sequential_digest == process_digest, (
            f"executors disagree at {workers} workers: the process and "
            "sequential executors must be bit-identical on a static graph"
        )
    print("\ndigests bit-identical across executors at every width: OK")

    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"wrote JSON report to {out}")
    if args.assert_speedup:
        ratio = payload["derived"].get("speedup:process-vs-sequential:w4")
        assert ratio is not None, "--assert-speedup needs 4 in --workers"
        assert ratio >= 2.0, (
            f"process executor at 4 workers is only {ratio:.2f}x the "
            f"sequential executor (needs >= 2x; cores={payload['cores']})"
        )
        print(f"acceptance: process w4 is {ratio:.2f}x sequential QPS "
              "(>= 2x): OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
