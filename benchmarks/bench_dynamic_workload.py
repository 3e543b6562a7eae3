"""E-A4 — heavy mixed traffic: queries under an interleaved update stream.

The paper's §1 motivation measured end to end: one reproducible trace of
Zipf-skewed queries interleaved with edge updates is replayed, per
read/write ratio, against

- ``probesim-native`` — index-free, vectorized; maintenance is an O(m)
  snapshot re-sync;
- ``tsf`` — the updatable index baseline; incremental one-way-graph
  patching per update;
- ``probesim-walkindex`` — the §7 walk cache; fine-grained invalidation
  per update.

Unlike ``bench_dynamic_updates.py`` (which times maintenance in isolation),
this bench measures *interference*: per-op latency percentiles and
sustained QPS while the update stream competes with the query path.
Besides the usual text tables, it writes a machine-readable JSON report
(p50/p95/p99, QPS, maintenance, staleness, per-method digests) to
``benchmarks/results/<scale>/bench_dynamic_workload.json``.
"""

from conftest import RESULTS_DIR, SCALE, TSF_RG, TSF_RQ, emit_table, get_dataset
from repro.eval.reporting import write_json_report
from repro.workloads import generate_workload, run_workload

DATASET = "as"
SEED = 2017
READ_FRACTIONS = [0.5, 0.9, 0.99]
METHODS = ["probesim-native", "tsf", "probesim-walkindex"]
NUM_OPS = {"tiny": 150, "small": 600, "paper": 2000}[SCALE]
WORKERS = {"tiny": 2, "small": 2, "paper": 4}[SCALE]
EPS_A = 0.2


def method_configs() -> dict[str, dict]:
    """Per-method configuration at the harness scale (fixed seeds)."""
    return {
        "probesim-native": {"eps_a": EPS_A, "delta": 0.1, "seed": SEED},
        "tsf": {"rg": TSF_RG, "rq": TSF_RQ, "depth": 8, "seed": SEED},
        "probesim-walkindex": {"eps_a": EPS_A, "delta": 0.1, "seed": SEED},
    }


def test_dynamic_workload_across_read_write_ratios(benchmark):
    graph = get_dataset(DATASET).copy()

    def run_all():
        payload = {"dataset": DATASET, "scale": SCALE, "workers": WORKERS,
                   "read_fractions": READ_FRACTIONS, "runs": []}
        for read_fraction in READ_FRACTIONS:
            trace = generate_workload(
                graph,
                num_ops=NUM_OPS,
                read_fraction=read_fraction,
                zipf_s=1.0,
                insert_fraction=0.5,
                seed=SEED,
            )
            result = run_workload(
                graph, trace, METHODS, configs=method_configs(), workers=WORKERS
            )
            payload["runs"].append({
                "read_fraction": read_fraction,
                **result.to_dict(),
            })
            rows = [
                {"read_fraction": read_fraction, **row} for row in result.rows()
            ]
            emit_table(
                "dynamic_workload",
                rows,
                (f"Mixed workload: {trace.num_queries} queries / "
                 f"{trace.num_updates} updates, read_fraction={read_fraction}, "
                 f"workers={WORKERS}, scale={SCALE}"),
            )
        return payload

    payload = benchmark.pedantic(run_all, rounds=1, iterations=1)
    path = write_json_report(RESULTS_DIR / "bench_dynamic_workload.json", payload)
    print(f"\nwrote JSON report to {path}")

    # every method answered the full query load at every ratio
    for run in payload["runs"]:
        assert len(run["reports"]) == len(METHODS)
        for report in run["reports"]:
            assert report["num_queries"] > 0
            assert report["latency"]["p50_s"] > 0
            assert report["qps"] > 0
            assert report["digest"]


def test_dynamic_workload_is_bit_reproducible():
    """Same graph + seed + config => identical trace signature and digests."""
    graph = get_dataset(DATASET).copy()
    trace_a = generate_workload(graph, num_ops=60, read_fraction=0.8, seed=SEED)
    trace_b = generate_workload(graph, num_ops=60, read_fraction=0.8, seed=SEED)
    assert trace_a.signature() == trace_b.signature()
    configs = method_configs()
    first = run_workload(graph, trace_a, METHODS, configs=configs, workers=WORKERS)
    second = run_workload(graph, trace_b, METHODS, configs=configs, workers=WORKERS)
    assert [r.digest for r in first.reports] == [r.digest for r in second.reports]
