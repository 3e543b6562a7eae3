"""E-C2 — batch QPS scaling of the sharded serving router across shard counts.

One read-heavy Zipf trace is replayed through the workload driver against
:class:`~repro.parallel.sharded.ShardedSimRankService` at increasing shard
counts P (one worker process per shard), answering the partition-and-route
questions PR 7 adds:

- **process, P shards**: batches split by owning shard and fan out
  shard-parallel — batch QPS should scale with P, since the shards'
  worker groups answer their sub-batches concurrently;
- **sequential, P shards**: the per-P bit-exactness oracle (identical
  routing/dispatch schedule, no worker processes) — its digest pins the
  process run at the same P;
- **P=1 vs the unsharded service**: the anchor — one shard must be
  bit-identical to ``ParallelSimRankService`` on the same trace.

Every process digest is asserted against its sequential oracle, and P=1
against the unsharded service, before any number is reported.

Usage::

    python benchmarks/bench_sharded_service.py                  # full preset
    python benchmarks/bench_sharded_service.py --smoke          # seconds
    python benchmarks/bench_sharded_service.py --json out.json  # perf gate
    python benchmarks/bench_sharded_service.py --shards 1,2,4

The ``--json`` report carries a flat ``gate`` block consumed by
``tools/check_bench_regression.py`` (the nightly perf-regression gate).
"""

import argparse
import json
import multiprocessing
import os
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import emit_table  # noqa: E402

from repro.graph.generators import erdos_renyi_graph  # noqa: E402
from repro.workloads import generate_workload, run_workload  # noqa: E402

SEED = 2017
METHOD = "probesim-native"

#: (num_nodes, num_edges, num_ops) presets; smoke finishes in seconds.
PRESETS = {
    "full": (4_000, 16_000, 600),
    "smoke": (300, 1_200, 120),
}


def build_trace(smoke: bool):
    """The shared workload: read-only, Zipf-hot, big batches, deterministic."""
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


def replay(graph, trace, smoke: bool, executor: str, shards=None,
           partition: str = "hash") -> dict:
    """One driver replay; returns the flat row the tables/JSON share."""
    report = run_workload(
        graph, trace, [METHOD], configs=method_config(smoke),
        workers=1, executor=executor, shards=shards, partition=partition,
    ).reports[0]
    return {
        "executor": executor,
        "shards": shards or 0,
        "partition": partition if shards else "-",
        "qps": round(report.qps, 1),
        "p50_ms": round(report.latency.percentile(50) * 1e3, 2),
        "p95_ms": round(report.latency.percentile(95) * 1e3, 2),
        "digest": report.digest,
    }


def run_bench(shard_series, smoke: bool) -> dict:
    """The full sweep; returns the JSON payload (with the gate block)."""
    graph, trace = build_trace(smoke)
    rows = []
    for shards in shard_series:
        rows.append(replay(graph, trace, smoke, "sequential", shards))
        rows.append(replay(graph, trace, smoke, "process", shards))
    flat = replay(graph, trace, smoke, "sequential")  # unsharded anchor
    degree = replay(
        graph, trace, smoke, "process", shard_series[-1], partition="degree"
    )
    preset = "smoke" if smoke else "full"
    emit_table(
        "sharded_service", rows + [degree],
        (f"Shard scaling on {trace.num_queries} Zipf queries "
         f"({preset} preset, 1 worker/shard, "
         f"cores={multiprocessing.cpu_count()})"),
    )

    def row_of(executor, shards):
        return next(
            r for r in rows
            if r["executor"] == executor and r["shards"] == shards
        )

    # digests are the acceptance criteria, checked before any number ships:
    # process == sequential at every P, and P=1 == the unsharded service
    for shards in shard_series:
        seq = row_of("sequential", shards)["digest"]
        proc = row_of("process", shards)["digest"]
        assert seq == proc, (
            f"sharded process run diverged from its sequential oracle at "
            f"P={shards}"
        )
    if 1 in shard_series:
        assert row_of("sequential", 1)["digest"] == flat["digest"], (
            "one shard must be bit-identical to the unsharded service"
        )

    # gate metrics are *absolute* QPS/latency numbers: against a
    # same-hardware baseline they regress monotonically with a slow commit.
    # Machine-relative scaling ratios go under "derived".
    gate = {}
    for shards in shard_series:
        gate[f"qps:process:p{shards}"] = row_of("process", shards)["qps"]
        gate[f"p95_ms:process:p{shards}"] = row_of("process", shards)["p95_ms"]
    gate[f"qps:process-degree:p{shard_series[-1]}"] = degree["qps"]
    base = row_of("process", shard_series[0])["qps"]
    derived = {
        f"speedup:process:p{shards}-vs-p{shard_series[0]}": round(
            row_of("process", shards)["qps"] / base, 3
        )
        for shards in shard_series[1:]
    }
    return {
        "bench": "sharded_service",
        "preset": preset,
        "method": METHOD,
        "cores": multiprocessing.cpu_count(),
        "trace": {"queries": trace.num_queries, "signature": trace.signature()},
        "series": rows,
        "unsharded": flat,
        "degree_partition": degree,
        "derived": derived,
        "gate": gate,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", default="1,2,4",
                        help="comma-separated shard counts to sweep")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny preset: seconds, for the CI bench-smoke job")
    parser.add_argument("--json", default=None,
                        help="write the machine-readable report here")
    parser.add_argument("--assert-scaling", action="store_true",
                        help="fail unless the widest sweep point beats one "
                             "shard's batch QPS (needs real multi-core "
                             "hardware)")
    args = parser.parse_args(argv)
    shard_series = [int(p) for p in args.shards.split(",") if p.strip()]

    payload = run_bench(shard_series, args.smoke)
    print("\ndigests: process == sequential oracle at every shard count, "
          "P=1 == unsharded service: OK")

    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"wrote JSON report to {out}")
    if args.assert_scaling:
        widest = shard_series[-1]
        key = f"speedup:process:p{widest}-vs-p{shard_series[0]}"
        ratio = payload["derived"].get(key)
        assert ratio is not None, "--assert-scaling needs >= 2 shard counts"
        assert ratio > 1.0, (
            f"P={widest} is only {ratio:.2f}x one shard's batch QPS "
            f"(needs > 1x; cores={payload['cores']})"
        )
        print(f"acceptance: P={widest} is {ratio:.2f}x one-shard QPS (> 1x): OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
