"""E-C2 — delta propagation vs full epoch rebuild under update-heavy traffic.

One update-heavy Zipf trace (``read_fraction=0.5`` — half the operations
mutate edges) is replayed through the workload driver on the process
executor twice, differing only in the parallel service's maintenance path:

- **rebuild**: every update burst publishes a fresh shared-memory graph
  generation, every worker rebuilds every estimator replica against it,
  and the whole result cache turns over — O(m) per burst (PR 4's only
  path);
- **delta**: the burst rides in a ``("delta", updates)`` RPC, workers
  absorb it in place via ``apply_updates`` (replica RNG streams continue),
  and only cache entries in the touched 1-hop neighborhood are dropped —
  O(Δ) per burst.

Two numbers decide the comparison, and both must improve for the delta
path to earn its keep: **maintenance seconds** (the O(m) → O(Δ) claim) and
the **post-update cache hit rate** (hot Zipf keys staying warm across
small bursts).  Both runs are also digest-checked against the sequential
in-process oracle — the delta path must buy its speed with zero drift.

Usage::

    python benchmarks/bench_incremental_sync.py                  # full preset
    python benchmarks/bench_incremental_sync.py --smoke          # seconds
    python benchmarks/bench_incremental_sync.py --json out.json  # perf gate

The run pins itself to ``CORE_BUDGET`` cores and records the pinned
count as ``cores``.  The ``--json`` report carries a flat ``gate`` block
consumed by ``tools/check_bench_regression.py`` (the nightly
perf-regression gate).
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
METHOD = "tsf"  # the paper's incremental-update index
WORKERS = 2
#: cores the run pins itself to (worker processes inherit the affinity);
#: the report records the pinned count as ``cores``, so any box with at
#: least this many cores can gate.
CORE_BUDGET = 1

#: (num_nodes, num_edges, num_ops) presets; smoke finishes in seconds.
PRESETS = {
    "full": (3_000, 12_000, 320),
    "smoke": (300, 1_200, 60),
}


def build_trace(smoke: bool):
    """The shared workload: update-heavy, Zipf-hot queries, deterministic."""
    n, m, num_ops = PRESETS["smoke" if smoke else "full"]
    graph = erdos_renyi_graph(n, num_edges=m, seed=SEED)
    trace = generate_workload(
        graph, num_ops=num_ops, read_fraction=0.5, zipf_s=1.2,
        max_query_batch=8, max_update_batch=4, seed=SEED,
    )
    return graph, trace


def method_config(smoke: bool) -> dict:
    rg = 30 if smoke else 60
    return {METHOD: {"rg": rg, "rq": 3, "depth": 5, "seed": SEED}}


def replay(graph, trace, smoke: bool, maintenance: str,
           executor: str = "process") -> dict:
    """One driver replay; returns the flat row the tables/JSON share."""
    report = run_workload(
        graph, trace, [METHOD], configs=method_config(smoke),
        workers=WORKERS, executor=executor, maintenance=maintenance,
        cache_size=graph.num_nodes,
    ).reports[0]
    return {
        "maintenance": maintenance,
        "executor": executor,
        "maint_s": round(report.maintenance_seconds, 4),
        "maint_per_update_ms": round(report.maintenance_per_update * 1e3, 3),
        "qps": round(report.qps, 1),
        "hit_rate": round(report.cache["hit_rate"], 3),
        "delta_syncs": report.delta_syncs,
        "epochs": report.epochs,
        "digest": report.digest,
    }


def run_bench(smoke: bool) -> dict:
    """The full comparison; returns the JSON payload (with the gate block)."""
    cores = pin_cores(CORE_BUDGET)
    graph, trace = build_trace(smoke)
    rows = [
        replay(graph, trace, smoke, maintenance)
        for maintenance in ("rebuild", "delta")
    ]
    preset = "smoke" if smoke else "full"
    emit_table(
        "incremental_sync", rows,
        (f"Delta vs rebuild maintenance: {trace.num_updates} updates / "
         f"{trace.num_queries} queries ({preset} preset, "
         f"cores={cores})"),
    )

    by_mode = {row["maintenance"]: row for row in rows}
    # gate on the absolute numbers the delta path exists to improve:
    # maintenance wall-clock (lower-better) and the post-update cache hit
    # rate (higher-better, and deterministic for fixed seeds); QPS rides
    # along as the end-to-end sanity number.
    gate = {}
    for mode, row in by_mode.items():
        gate[f"maint_s:{mode}:w{WORKERS}"] = row["maint_s"]
        gate[f"qps:{mode}:w{WORKERS}"] = row["qps"]
        gate[f"hit:rate:{mode}"] = row["hit_rate"]
    derived = {
        "speedup:maintenance:delta-vs-rebuild": round(
            by_mode["rebuild"]["maint_s"] / max(by_mode["delta"]["maint_s"], 1e-9), 2
        ),
    }
    return {
        "bench": "incremental_sync",
        "preset": preset,
        "method": METHOD,
        "cores": cores,
        "trace": {
            "queries": trace.num_queries,
            "updates": trace.num_updates,
            "signature": trace.signature(),
        },
        "series": rows,
        "derived": derived,
        "gate": gate,
        "_graph": graph,  # popped before serialisation; reused by the asserts
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny preset: seconds, for the CI bench-smoke job")
    parser.add_argument("--json", default=None,
                        help="write the machine-readable report here")
    args = parser.parse_args(argv)

    payload = run_bench(args.smoke)
    graph = payload.pop("_graph")
    _, trace = build_trace(args.smoke)
    by_mode = {row["maintenance"]: row for row in payload["series"]}

    # correctness: each maintenance path must be bit-identical to the
    # sequential in-process oracle replaying the identical schedule
    for mode in ("rebuild", "delta"):
        oracle = replay(graph, trace, args.smoke, mode, executor="sequential")
        assert oracle["digest"] == by_mode[mode]["digest"], (
            f"{mode} maintenance drifted from the sequential oracle: the "
            "process executor must stay bit-exact under updates"
        )
    print("\ndigests bit-identical to the sequential oracle on both paths: OK")

    # acceptance: O(Δ) must beat O(m) on both axes it claims
    assert by_mode["delta"]["maint_s"] < by_mode["rebuild"]["maint_s"], (
        f"delta maintenance ({by_mode['delta']['maint_s']}s) did not beat "
        f"the full rebuild ({by_mode['rebuild']['maint_s']}s)"
    )
    assert by_mode["delta"]["hit_rate"] > by_mode["rebuild"]["hit_rate"], (
        f"delta cache hit rate ({by_mode['delta']['hit_rate']}) did not beat "
        f"the rebuild path's ({by_mode['rebuild']['hit_rate']})"
    )
    ratio = payload["derived"]["speedup:maintenance:delta-vs-rebuild"]
    print(f"acceptance: delta maintenance is {ratio:.1f}x cheaper than "
          f"rebuild and keeps the cache warmer "
          f"({by_mode['delta']['hit_rate']:.3f} vs "
          f"{by_mode['rebuild']['hit_rate']:.3f} hit rate): OK")

    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"wrote JSON report to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
