"""E-C1 — multi-core QPS scaling of the shared-memory parallel service.

One read-heavy Zipf trace is replayed through the workload driver on both
executors at increasing pool widths, answering the scale-out questions:

- **thread**: the pool's in-process workers answering their shares on a
  thread pool — no fork or pickling, but GIL-bound: the single-process
  ceiling;
- **process**: the same dispatch across worker processes over a
  zero-copy shared-memory graph (:mod:`repro.parallel`) — throughput
  scales with cores;
- **process + cache**: the update-aware result cache in front of the
  process pool, showing the hot-key hit-rate speedup Zipf traffic earns.

Both executors run the pool's one dispatch path, and on each an op's
latency is its own compute time on its worker, not a batch mean.  The standalone run pins itself to ``CORE_BUDGET``
cores and records the pinned count as ``cores``, so a baseline gates on
any box with at least that many cores.

The headline acceptance number — ``--workers 4`` at ≥ 2x the thread
executor's single-source QPS on the same trace — only shows on real
multi-core hardware; pass ``--assert-speedup`` to enforce it (CI perf
machines), leave it off on laptops/containers with throttled cores.
Pinned to ``CORE_BUDGET = 2`` cores the process executor can at best
double the thread executor, so the assert sits at the edge of that budget.

Usage::

    python benchmarks/bench_parallel_service.py                  # full preset
    python benchmarks/bench_parallel_service.py --smoke          # seconds
    python benchmarks/bench_parallel_service.py --json out.json  # perf gate
    python benchmarks/bench_parallel_service.py --workers 1,2,4,8

The ``--json`` report carries a flat ``gate`` block consumed by
``tools/check_bench_regression.py`` (the nightly perf-regression gate).

``--free-threaded-probe`` (opt-in) re-runs the thread-executor sweep and
reports whether it scales with pool width — the question only a
free-threaded build (3.13t, ``python -X gil=0`` / PEP 703) can answer
with "yes".  On a GIL build the probe still runs and records the flat
scaling curve as the control measurement; nothing gates on it either
way, it is an instrumentation surface for free-threaded CPython.
"""

import argparse
import json
import os
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


def run_bench(worker_series, smoke: bool, cores: int) -> dict:
    """The full comparison; returns the JSON payload (with the gate block)."""
    graph, trace = build_trace(smoke)
    rows = []
    for workers in worker_series:
        rows.append(replay(graph, trace, smoke, "thread", workers))
        rows.append(replay(graph, trace, smoke, "process", workers))
    cache_off = replay(graph, trace, smoke, "process", worker_series[-1])
    cache_on = replay(
        graph, trace, smoke, "process", worker_series[-1],
        cache_size=graph.num_nodes,
    )
    preset = "smoke" if smoke else "full"
    emit_table(
        "parallel_service", rows,
        (f"Executor scaling on {trace.num_queries} Zipf queries "
         f"({preset} preset, cores={cores})"),
    )
    emit_table(
        "parallel_service", [cache_off, cache_on],
        f"Update-aware result cache at {worker_series[-1]} process workers",
    )

    def qps_of(executor, workers):
        return next(
            r["qps"] for r in rows
            if r["executor"] == executor and r["workers"] == workers
        )

    # gate metrics are *absolute* QPS/latency numbers (plus the
    # deterministic cache hit rate): against a same-hardware baseline they
    # regress monotonically with a slow commit.  Machine-relative ratios
    # (process-vs-thread, cache speedup) go under "derived" — informative,
    # but too hardware-shaped to gate at a fixed threshold.
    gate = {}
    for workers in worker_series:
        gate[f"qps:thread:w{workers}"] = qps_of("thread", workers)
        gate[f"qps:process:w{workers}"] = qps_of("process", workers)
    for row in rows:
        gate[f"p95_ms:{row['executor']}:w{row['workers']}"] = row["p95_ms"]
    gate[f"qps:process-cached:w{worker_series[-1]}"] = cache_on["qps"]
    gate["hit:rate:cached"] = cache_on.get("hit_rate", 0.0)
    derived = {
        f"speedup:process-vs-thread:w{workers}": round(
            qps_of("process", workers) / qps_of("thread", workers), 3
        )
        for workers in worker_series
    }
    derived["speedup:cache"] = round(cache_on["qps"] / cache_off["qps"], 3)
    return {
        "bench": "parallel_service",
        "preset": preset,
        "method": METHOD,
        "cores": cores,
        "trace": {"queries": trace.num_queries, "signature": trace.signature()},
        "series": rows,
        "cache": {"off": cache_off, "on": cache_on},
        "derived": derived,
        "gate": gate,
    }


def gil_enabled() -> bool | None:
    """``True``/``False`` on 3.13+, ``None`` where the probe cannot tell."""
    probe = getattr(sys, "_is_gil_enabled", None)
    return probe() if callable(probe) else None


def run_free_threaded_probe(worker_series, smoke: bool, cores: int) -> dict:
    """Thread-executor scaling curve plus the interpreter's GIL status.

    On a free-threaded build the thread executor should approach the
    process executor's scaling (no pickling, no fork); on a GIL build the
    curve stays flat.  Either result is recorded, never gated.
    """
    graph, trace = build_trace(smoke)
    rows = [
        replay(graph, trace, smoke, "thread", workers)
        for workers in worker_series
    ]
    emit_table(
        "parallel_service", rows,
        (f"Free-threaded probe: thread executor sweep "
         f"(gil_enabled={gil_enabled()}, cores={cores})"),
    )
    base = rows[0]["qps"]
    return {
        "gil_enabled": gil_enabled(),
        "python": sys.version,
        "series": rows,
        "scaling": round(rows[-1]["qps"] / base, 3) if base else None,
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
                        help="fail unless process w4 >= 2x thread QPS "
                             "(needs real multi-core hardware)")
    parser.add_argument("--free-threaded-probe", action="store_true",
                        dest="free_threaded_probe",
                        help="also sweep the thread executor and record "
                             "whether it scales (meaningful on a 3.13t "
                             "free-threaded build; informational elsewhere)")
    args = parser.parse_args(argv)
    worker_series = [int(w) for w in args.workers.split(",") if w.strip()]

    cores = pin_cores(CORE_BUDGET)
    payload = run_bench(worker_series, args.smoke, cores)
    if args.free_threaded_probe:
        payload["free_threaded_probe"] = run_free_threaded_probe(
            worker_series, args.smoke, cores
        )
    digests = {
        (row["executor"], row["workers"]): row["digest"]
        for row in payload["series"]
    }
    for workers in worker_series:
        thread_digest = digests[("thread", workers)]
        process_digest = digests[("process", workers)]
        assert thread_digest == process_digest, (
            f"executors disagree at {workers} workers: the process and "
            "thread executors must be bit-identical on a static graph"
        )
    print("\ndigests bit-identical across executors at every width: OK")

    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"wrote JSON report to {out}")
    if args.assert_speedup:
        ratio = payload["derived"].get("speedup:process-vs-thread:w4")
        assert ratio is not None, "--assert-speedup needs 4 in --workers"
        assert ratio >= 2.0, (
            f"process executor at 4 workers is only {ratio:.2f}x the thread "
            f"executor (needs >= 2x; cores={payload['cores']})"
        )
        print(f"acceptance: process w4 is {ratio:.2f}x thread QPS (>= 2x): OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
