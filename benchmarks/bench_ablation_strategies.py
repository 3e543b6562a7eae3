"""E-A2 — ablation: basic vs batch vs randomized vs hybrid (§3.2, §4.2-4.4),
plus native, batch's vectorized trie sweep.

The batching claim: deduplicating shared walk prefixes in the reachability
tree reduces the number of PROBE invocations; hybrid adds the worst-case
escape hatch.  Also ablates the deterministic probe itself (the hash-map
transliteration of Algorithm 2 vs the vectorized numpy probe) over the same
trie prefixes.
"""

import numpy as np
import pytest

from conftest import (
    SCALE,
    emit_table,
    get_csr,
    get_ground_truth,
    get_queries,
    make_probesim,
)
from repro.core.engine import QueryStats
from repro.core.probe import probe_deterministic, probe_deterministic_python
from repro.eval.metrics import abs_error_max

DATASET = "wiki-vote"
STRATEGIES = ["basic", "batch", "randomized", "hybrid", "native"]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_ablation_strategy(benchmark, strategy):
    truth = get_ground_truth(DATASET)
    query = get_queries(DATASET, 1)[0]
    engine = make_probesim(DATASET, eps_a=0.1, strategy=strategy)
    result = benchmark.pedantic(
        engine.single_source, args=(query,), rounds=2, iterations=1
    )
    error = abs_error_max(result.scores, truth.single_source(query), query)
    stats = engine.last_stats
    emit_table(
        "ablation_strategies",
        [
            {
                "strategy": strategy,
                "abs_error": error,
                "probes": stats.num_probes,
                "tree_nodes": stats.num_tree_nodes,
                "hybrid_switches": stats.num_hybrid_switches,
                "query_time_s": stats.elapsed,
            }
        ],
        f"Ablation: strategy={strategy}, scale={SCALE}",
    )
    assert error <= 0.1  # every strategy keeps the guarantee


def test_ablation_batching_reduces_probes(benchmark):
    """The §4.2 claim, measured: batch probes <= basic probes on the same
    walk multiset.  Every strategy draws one walk set per (seed, query),
    so all five take the same walk steps."""
    query = get_queries(DATASET, 1)[0]

    def run_all():
        stats = {}
        for strategy in STRATEGIES:
            engine = make_probesim(DATASET, eps_a=0.1, strategy=strategy, seed=7)
            engine.single_source(query)
            stats[strategy] = engine.last_stats
        return stats

    stats = benchmark.pedantic(run_all, rounds=1, iterations=1)
    basic, batch = stats["basic"], stats["batch"]
    emit_table(
        "ablation_strategies",
        [
            {
                "metric": "probe invocations",
                "basic": basic.num_probes,
                "batch": batch.num_probes,
                "saved": basic.num_probes - batch.num_probes,
            }
        ],
        "Ablation: batching saves probes (same walks)",
    )
    steps = {name: s.walk_length_total for name, s in stats.items()}
    assert len(set(steps.values())) == 1, steps
    assert batch.num_probes <= basic.num_probes


def _densify(scores: dict[int, float], n: int) -> np.ndarray:
    dense = np.zeros(n, dtype=np.float64)
    dense[list(scores)] = list(scores.values())
    return dense


@pytest.mark.parametrize("probe", ["vectorized", "python"])
def test_ablation_probe(benchmark, probe):
    """numpy frontier propagation vs the dict-based reference probe, timed
    over one query's trie prefixes; both must give the same scores."""
    query = get_queries(DATASET, 1)[0]
    engine = make_probesim(DATASET, eps_a=0.15, strategy="batch", num_walks=300)
    prefixes = list(engine._sample_trie(query, QueryStats()).iter_prefixes())
    csr = get_csr(DATASET)
    sqrt_c, eps_p = engine.config.sqrt_c, engine.config.prune_threshold()

    def run_probes():
        if probe == "python":
            return [
                _densify(probe_deterministic_python(csr, prefix, sqrt_c, eps_p),
                         csr.num_nodes)
                for prefix, _ in prefixes
            ]
        return [probe_deterministic(csr, prefix, sqrt_c, eps_p) for prefix, _ in prefixes]

    scores = benchmark.pedantic(run_probes, rounds=2, iterations=1)
    expected = [probe_deterministic(csr, prefix, sqrt_c, eps_p) for prefix, _ in prefixes]
    for got, want in zip(scores, expected):
        np.testing.assert_allclose(got, want, atol=1e-12)
