"""E-B1 — native engine vs per-prefix loop engine.

The tentpole claim of the native engine (``strategy="native"``,
:mod:`repro.core.native`): replacing the per-prefix probe loop with one
level-synchronous array sweep over the prefix trie turns the dominant
per-query cost into a handful of numpy/scipy operations per trie level.
This bench measures it against the per-prefix loop of
``strategy="batch"`` across graph sizes, single-query and service-batch
shapes.  Every strategy draws its walks from the same counter RNG, so
on one seed both engines probe the same walks; correctness is held by the
engine's loop-oracle and hash-map oracle suites.  Headline: **>= 5x single-query over the loop engine at
n ~ 10k, R ~ 1000**.  ``--json`` writes the gate report
(``benchmarks/baselines/BENCH_native.json`` is the committed baseline).

Run through pytest (``pytest benchmarks/bench_native_engine.py -q``) or
standalone (``python benchmarks/bench_native_engine.py``) — standalone
skips nothing and prints the same tables.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import emit_table, pin_cores  # noqa: E402

from repro.core.engine import ProbeSim  # noqa: E402
from repro.graph import CSRGraph  # noqa: E402
from repro.graph.generators import erdos_renyi_graph  # noqa: E402

#: REPRO_SMOKE=1 shrinks everything to seconds (CI bench-smoke job) and
#: disables the headline assertion, which needs the full acceptance sizes.
SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")

#: (num_nodes, num_edges) series; the n = 10k rows are the acceptance config.
if SMOKE:
    SIZES = [(500, 2_500), (2_000, 8_000)]
    NUM_WALKS = 200
    HEADLINE_N = 2_000
else:
    SIZES = [(1_000, 5_000), (4_000, 20_000), (10_000, 30_000), (10_000, 50_000)]
    NUM_WALKS = 1_000
    HEADLINE_N = 10_000
HEADLINE_SPEEDUP = 5.0
BATCH_QUERIES = 16
#: cores the standalone run pins itself to; the report records the pinned
#: count as ``cores``, so any box with at least this many cores can gate.
CORE_BUDGET = 1

_graphs: dict[tuple[int, int], CSRGraph] = {}


def get_graph(n: int, m: int) -> CSRGraph:
    """Cached uniform random digraph with its probe operator prebuilt."""
    if (n, m) not in _graphs:
        csr = CSRGraph.from_digraph(erdos_renyi_graph(n, num_edges=m, seed=7))
        csr.backward_operator  # build outside the timed region
        _graphs[(n, m)] = csr
    return _graphs[(n, m)]


def make_engine(csr: CSRGraph, strategy: str) -> ProbeSim:
    """Algorithm 3 on the loop (``"batch"``) or the trie sweep (``"native"``)."""
    return ProbeSim(
        csr, strategy=strategy, c=0.6, eps_a=0.1, num_walks=NUM_WALKS, seed=3,
    )


def best_of(fn, rounds: int = 3) -> float:
    """Minimum wall-clock over ``rounds`` runs (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(rounds):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


def time_single_query(n: int, m: int) -> dict:
    csr = get_graph(n, m)
    query = n // 2
    # a fresh engine per round; the native context is built once per CSR
    # snapshot, so one warm-up query makes the timed rounds measure the
    # steady state every serving tier sees
    probe = make_engine(csr, "native")
    probe.single_source(query)
    loop_s = best_of(lambda: make_engine(csr, "batch").single_source(query), rounds=4)
    native_s = best_of(
        lambda: make_engine(csr, "native").single_source(query), rounds=4
    )
    return {
        "n": n,
        "m": m,
        "walks": NUM_WALKS,
        "tree_nodes": probe.last_stats.num_tree_nodes,
        "loop_s": round(loop_s, 4),
        "native_s": round(native_s, 4),
        "native_speedup": round(loop_s / native_s, 2),
    }


def time_query_batch(n: int, m: int, num_queries: int) -> dict:
    csr = get_graph(n, m)
    queries = [(n // 4 + i) % n for i in range(num_queries)]
    loop_s = best_of(
        lambda: make_engine(csr, "batch").single_source_many(queries), rounds=1
    )
    native_s = best_of(
        lambda: make_engine(csr, "native").single_source_many(queries), rounds=1
    )
    return {
        "n": n,
        "queries": num_queries,
        "loop_s": round(loop_s, 4),
        "native_s": round(native_s, 4),
        "per_query_ms": round(1000 * native_s / num_queries, 1),
        "native_speedup": round(loop_s / native_s, 2),
    }


_single_rows: list[dict] = []


def run_single_query_rows() -> list[dict]:
    """Single-query speedups across sizes (shared by pytest and --json).

    Memoized so the pytest headline and the JSON report share one
    measurement run instead of timing the whole matrix twice.
    """
    if not _single_rows:
        _single_rows.extend(time_single_query(n, m) for n, m in SIZES)
        emit_table(
            "native_engine",
            _single_rows,
            f"Loop vs native engine: single query, R={NUM_WALKS}",
        )
    return _single_rows


def test_native_single_query_speedup():
    """Headline: >= 5x over the loop engine at the n ~ 10k acceptance point
    (informational only under the smoke preset — the sizes are too small
    for timing ratios to mean much)."""
    rows = run_single_query_rows()
    headline = [r["native_speedup"] for r in rows if r["n"] == HEADLINE_N]
    if SMOKE:
        assert headline, rows  # ran, produced numbers; that is all smoke asks
        return
    assert max(headline) >= HEADLINE_SPEEDUP, rows


def test_native_answers_are_bit_reproducible():
    """The native engine's serving contract: a fresh engine returns the
    exact bytes of the previous one for the same (seed, query)."""
    import numpy as np

    csr = get_graph(*SIZES[0])
    query = SIZES[0][0] // 2
    a = make_engine(csr, "native").single_source(query).scores
    b = make_engine(csr, "native").single_source(query).scores
    np.testing.assert_array_equal(a, b)


def run_query_batch_rows() -> list[dict]:
    """Service-batch speedups (shared by pytest and --json)."""
    rows = [time_query_batch(n, m, BATCH_QUERIES) for n, m in (SIZES[0], SIZES[-1])]
    emit_table(
        "native_engine",
        rows,
        f"Loop vs native engine: {BATCH_QUERIES}-query service batch",
    )
    return rows


def test_query_batch_throughput():
    """Service batches: the native sweep beats the per-prefix loop on every
    query of the batch (dramatic on small graphs, still a clear win at the
    acceptance size)."""
    rows = run_query_batch_rows()
    if SMOKE:
        return  # timing ratios at smoke sizes are noise; the run is the test
    for row in rows:
        assert row["native_speedup"] > 1.0, row


def main(argv=None) -> int:
    """Standalone entry point; ``--json`` feeds the perf-regression gate."""
    import argparse
    import json
    from pathlib import Path

    from repro.core.native import native_backend

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default=None,
                        help="write the gate report here "
                             "(baseline: benchmarks/baselines/BENCH_native.json)")
    args = parser.parse_args(argv)

    cores = pin_cores(CORE_BUDGET)
    test_native_answers_are_bit_reproducible()
    single_rows = run_single_query_rows()
    batch_rows = run_query_batch_rows()
    if not SMOKE:
        headline = [
            r["native_speedup"] for r in single_rows if r["n"] == HEADLINE_N
        ]
        assert max(headline) >= HEADLINE_SPEEDUP, single_rows
    if args.json:
        # gate on absolute native latencies so an engine regression can't
        # hide behind a loop-engine slowdown; speedup ratios are
        # machine-shaped and ride along under "derived".  The backend is
        # recorded so a baseline from another backend never gates this one.
        gate = {}
        derived = {}
        for row in single_rows:
            key = f"n{row['n']}-m{row['m']}"
            gate[f"latency:single-native_s:{key}"] = row["native_s"]
            derived[f"speedup:single-native:{key}"] = row["native_speedup"]
        for row in batch_rows:
            gate[f"latency:batch-native_s:n{row['n']}"] = row["native_s"]
            derived[f"speedup:batch-native:n{row['n']}"] = row["native_speedup"]
        payload = {
            "bench": "native_engine",
            "preset": "smoke" if SMOKE else "full",
            "cores": cores,
            "backend": native_backend(),
            "walks": NUM_WALKS,
            "single_query": single_rows,
            "query_batch": batch_rows,
            "derived": derived,
            "gate": gate,
        }
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"wrote JSON report to {out}")
    print("bench_native_engine: all assertions passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
