"""E-C2 — served-traffic benchmark of the asyncio HTTP front door.

An in-process :class:`repro.server.SimRankHTTPApp` fronts a sequential
:class:`~repro.api.service.SimRankService` and the open-loop load
generator (:mod:`repro.server.loadgen`) replays a Zipf-hot query trace
against it over real sockets.  Two questions are answered on fixed seeds:

- **Bit-exactness** — with an integer engine seed, every
  coalesced HTTP response body must equal the byte string a fresh oracle
  service produces for the same query with direct sequential calls.
  Coalescing may regroup requests into any batches; it may not change a
  single byte of any answer.
- **Served throughput** — offered arrival rates from cruise to saturation,
  with request coalescing on vs off.  Under Zipf-hot traffic the
  coalescing tier batches the requests that park behind each in-flight
  dispatch, dedups repeated keys among them and amortizes per-request
  dispatch, so saturated QPS must *improve* with coalescing on (asserted
  on the full preset).

An overload run (tight admission capacity at twice the saturation rate)
additionally demonstrates load shedding: 503s with ``Retry-After``, no
client-visible errors, reported as ``shed_rate``.

Usage::

    python benchmarks/bench_http_serving.py                  # full preset
    python benchmarks/bench_http_serving.py --smoke          # seconds
    python benchmarks/bench_http_serving.py --json out.json  # perf gate

The run pins itself to ``CORE_BUDGET`` cores and records the pinned
count as ``cores``.  The ``--json`` report carries a flat ``gate`` block
consumed by ``tools/check_bench_regression.py`` (the nightly
perf-regression gate).
"""

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import emit_table, pin_cores  # noqa: E402

from repro.api.service import SimRankService  # noqa: E402
from repro.graph.generators import erdos_renyi_graph  # noqa: E402
from repro.server import (  # noqa: E402
    ServerConfig,
    SimRankHTTPApp,
    requests_from_trace,
    run_load,
    serialize_result,
    serialize_topk,
)
from repro.workloads import generate_workload  # noqa: E402

SEED = 2017
#: the loop engine: batching gains then come purely from the deterministic
#: levers (hot-key dedup + amortized dispatch), not graph-shaped trie luck.
#: (``probesim-native``, what ``repro serve`` ships, is too fast for these
#: rates: 240/s never saturates it, so coalescing has no backlog to batch.)
METHOD = "probesim"
#: cores the run pins itself to; the report records the pinned count as
#: ``cores``, so any box with at least this many cores can gate.
CORE_BUDGET = 1
SCORES_LIMIT = 10
TOP_K = 10

#: graph size, trace length, offered rates (last one saturates a
#: sequential service), and walk count per preset.
PRESETS = {
    "full": dict(nodes=1_500, edges=6_000, ops=200, rates=(15, 60, 240),
                 walks=60, zipf=1.3),
    "smoke": dict(nodes=200, edges=800, ops=40, rates=(80, 200),
                  walks=80, zipf=1.3),
}


def method_config(preset: dict) -> dict:
    # an integer seed makes answers pure functions of (config, graph,
    # query), which is what makes the bit-exactness phase meaningful at all
    return {METHOD: {
        "eps_a": 0.2, "delta": 0.1, "num_walks": preset["walks"],
        "seed": SEED,
    }}


def build_workload(preset: dict):
    graph = erdos_renyi_graph(
        preset["nodes"], num_edges=preset["edges"], seed=SEED
    )
    trace = generate_workload(
        graph, num_ops=preset["ops"], read_fraction=1.0,
        zipf_s=preset["zipf"], seed=SEED,
    )
    return graph, trace


async def _serve_run(graph, preset, requests, rate, coalesce,
                     capacity=None, collect_bodies=False):
    """One load-generator run against a fresh in-process server."""
    service = SimRankService(
        graph, methods=[METHOD], configs=method_config(preset)
    )
    app = SimRankHTTPApp(service, ServerConfig(
        host="127.0.0.1", port=0, coalesce=coalesce,
        admission_capacity=capacity, scores_limit=SCORES_LIMIT,
    ))
    await app.start()
    try:
        report = await run_load(
            "127.0.0.1", app.port, requests, rate,
            collect_bodies=collect_bodies,
        )
    finally:
        await app.aclose()
    coalesce_stats = (
        app.coalescer.stats.metrics() if app.coalescer is not None else {}
    )
    return report, coalesce_stats


def bit_exactness(graph, trace, preset) -> dict:
    """Coalesced HTTP bodies vs a direct sequential oracle, byte for byte."""
    single = requests_from_trace(trace, limit=SCORES_LIMIT)
    topk = requests_from_trace(trace, kind="topk", k=TOP_K)
    # a rate high enough that requests really park behind dispatches
    rate = max(preset["rates"])
    # lanes sized to the trace: these runs measure bits, not shedding
    single_report, _ = asyncio.run(_serve_run(
        graph, preset, single, rate, coalesce=True,
        capacity=len(single), collect_bodies=True,
    ))
    topk_report, _ = asyncio.run(_serve_run(
        graph, preset, topk, rate, coalesce=True,
        capacity=len(topk), collect_bodies=True,
    ))

    oracle = SimRankService(
        graph, methods=[METHOD], configs=method_config(preset)
    )
    queries = trace.query_nodes()
    mismatches = 0
    for query, body in zip(queries, single_report.bodies):
        expected = serialize_result(oracle.single_source(query), SCORES_LIMIT)
        mismatches += body != expected
    for query, body in zip(queries, topk_report.bodies):
        expected = serialize_topk(oracle.topk(query, TOP_K))
        mismatches += body != expected
    oracle.close()
    compared = 2 * len(queries)
    assert single_report.errors == topk_report.errors == 0, (
        "bit-exactness runs must complete cleanly"
    )
    assert mismatches == 0, (
        f"{mismatches}/{compared} coalesced HTTP bodies differ from the "
        "sequential oracle — the coalescing tier changed an answer"
    )
    return {"responses_compared": compared, "mismatches": mismatches}


def rate_sweep(graph, trace, preset):
    """The served-traffic comparison: offered rate x coalescing on/off."""
    requests = requests_from_trace(trace, limit=SCORES_LIMIT)
    rows = []
    for rate in preset["rates"]:
        for coalesce in (False, True):
            # lanes sized to the trace: saturation shows as queueing
            # latency and QPS, not as sheds muddying the comparison
            report, stats = asyncio.run(_serve_run(
                graph, preset, requests, rate, coalesce=coalesce,
                capacity=len(requests),
            ))
            assert report.errors == 0, (
                f"rate={rate} coalesce={coalesce}: {report.errors} transport "
                "errors (the sweep must measure serving, not broken sockets)"
            )
            row = report.as_row()
            row = {
                "mode": "coalesce" if coalesce else "direct",
                **{k: round(v, 3) if isinstance(v, float) else v
                   for k, v in row.items()},
            }
            row["batches"] = int(stats.get("coalesce_batches", 0))
            row["dedup_saved"] = int(stats.get("coalesce_dedup_saved", 0))
            rows.append(row)
    return rows


def overload_run(graph, trace, preset) -> dict:
    """Tight lanes at twice the saturation rate: shedding, not errors."""
    requests = requests_from_trace(trace, limit=SCORES_LIMIT)
    rate = 2 * max(preset["rates"])
    report, _ = asyncio.run(_serve_run(
        graph, preset, requests, rate, coalesce=True, capacity=16,
    ))
    assert report.errors == 0, (
        "overload must surface as 503 sheds, never as transport errors"
    )
    assert report.shed_rate > 0, (
        f"capacity 16 at {rate}/s was expected to shed some requests"
    )
    return {
        "rate": rate, "capacity": 16,
        "shed_rate": round(report.shed_rate, 3),
        "completed_200": report.status_counts.get(200, 0),
    }


def run_bench(smoke: bool) -> dict:
    cores = pin_cores(CORE_BUDGET)
    preset_name = "smoke" if smoke else "full"
    preset = PRESETS[preset_name]
    graph, trace = build_workload(preset)

    exact = bit_exactness(graph, trace, preset)
    print(f"bit-exactness: {exact['responses_compared']} coalesced responses "
          "match the sequential oracle byte for byte: OK")

    rows = rate_sweep(graph, trace, preset)
    overload = overload_run(graph, trace, preset)
    unique = len(set(trace.query_nodes()))
    emit_table(
        "http_serving", rows,
        (f"HTTP front door, open-loop replay of {len(trace.query_nodes())} "
         f"Zipf queries ({unique} unique; {preset_name} preset, "
         f"cores={cores})"),
    )
    emit_table("http_serving", [overload],
               "Overload: admission capacity 16 at 2x the saturation rate")

    def qps_of(mode, rate):
        return next(
            r["qps"] for r in rows if r["mode"] == mode and r["rate"] == rate
        )

    gate = {}
    for rate in preset["rates"]:
        gate[f"qps:direct:r{rate}"] = qps_of("direct", rate)
        gate[f"qps:coalesce:r{rate}"] = qps_of("coalesce", rate)
    cruise = preset["rates"][0]
    for row in rows:
        if row["rate"] == cruise:
            gate[f"p50_ms:{row['mode']}:r{cruise}"] = row["p50_ms"]
            gate[f"p95_ms:{row['mode']}:r{cruise}"] = row["p95_ms"]
    saturated = max(preset["rates"])
    derived = {
        "speedup:coalesce-at-saturation": round(
            qps_of("coalesce", saturated) / qps_of("direct", saturated), 3
        ),
        "dedup:unique-fraction": round(unique / len(trace.query_nodes()), 3),
        "overload:shed_rate": overload["shed_rate"],
    }
    return {
        "bench": "http_serving",
        "preset": preset_name,
        "method": METHOD,
        "cores": cores,
        "trace": {"queries": len(trace.query_nodes()), "unique": unique,
                  "signature": trace.signature()},
        "bit_exactness": exact,
        "series": rows,
        "overload": overload,
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
    speedup = payload["derived"]["speedup:coalesce-at-saturation"]
    if not args.smoke:
        # the tentpole acceptance claim: at saturation, coalescing must
        # improve served QPS (dedup of Zipf-hot keys guarantees headroom)
        assert speedup >= 1.05, (
            f"coalescing at saturation is only {speedup:.2f}x the direct "
            "path (needs >= 1.05x)"
        )
        print(f"\nacceptance: coalescing is {speedup:.2f}x direct QPS at "
              "saturation (>= 1.05x): OK")
    else:
        print(f"\ncoalescing speedup at saturation: {speedup:.2f}x "
              "(not asserted on the smoke preset)")

    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"wrote JSON report to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
