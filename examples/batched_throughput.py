"""Native engine: the serving hot path, demonstrated.

One ProbeSim configuration, Algorithm 3 on two code paths:

- ``strategy="batch"``  — the paper's per-prefix probe loop (oracle path);
- ``strategy="native"`` — all sampled walks enter a prefix trie and every
  trie level advances as one array operation over its distinct prefixes.

Both draw the same walks for one seed.  The demo checks three things end
to end: the two engines agree up to the mass the loop's Pruning rule 2
drops, a single-query speedup, and a service batch flowing through
``SimRankService.topk_many`` with duplicate queries answered once.

Run:  python examples/batched_throughput.py
"""

import numpy as np

from repro import ProbeSim, SimRankService
from repro.api import get_entry
from repro.graph.generators import erdos_renyi_graph
from repro.utils.timer import Timer

graph = erdos_renyi_graph(800, num_edges=4_000, seed=11)
print(f"graph: {graph}")

CONFIG = dict(c=0.6, eps_a=0.1, delta=0.1, num_walks=800, seed=42)
QUERY = 17

# -- same answers, different execution ------------------------------------
loop_engine = ProbeSim(graph, strategy="batch", **CONFIG)
native_engine = ProbeSim(graph, strategy="native", **CONFIG)

with Timer() as t_loop:
    loop_result = loop_engine.single_source(QUERY)
with Timer() as t_native:
    native_result = native_engine.single_source(QUERY)

gap = float(np.abs(loop_result.scores - native_result.scores).max())
budget = loop_engine.config.budget
bound = (1.0 + budget.eps) / (1.0 - budget.sqrt_c) * budget.eps_p
print(f"\nsingle-source from node {QUERY} ({loop_result.num_walks} walks)")
print(f"  loop engine:   {t_loop.elapsed:.3f}s")
print(f"  native engine: {t_native.elapsed:.3f}s "
      f"({t_loop.elapsed / t_native.elapsed:.1f}x)")
print(f"  max |loop - native| = {gap:.2e} "
      f"(same walks; Pruning rule 2 bound {bound:.2e})")
assert gap <= bound + 1e-12
assert get_entry("probesim-native").capabilities.vectorized

# -- a service batch: duplicates share one answer -------------------------
service = SimRankService(
    graph,
    methods=("probesim-native",),
    configs={"probesim-native": dict(eps_a=0.1, delta=0.1,
                                      num_walks=800, seed=7)},
)
hot_queries = [17, 3, 17, 250, 3, 17, 99]  # hot-key mix: dedup
with Timer() as t_batch:
    tops = service.topk_many(hot_queries, k=5)
print(f"\nservice batch of {len(hot_queries)} top-5 queries "
      f"({service.stats.batch_dedup_saved} served from batch dedup): "
      f"{t_batch.elapsed:.3f}s")
for query, top in zip(hot_queries[:3], tops[:3]):
    best, score = top.as_pairs()[0]
    print(f"  node {query}: most similar {best} (s ~= {score:.3f})")

# duplicates inside the batch share one answer object
assert tops[0].as_pairs() == tops[2].as_pairs()
print("\nnative engine = same guarantee, shared work — done.")
