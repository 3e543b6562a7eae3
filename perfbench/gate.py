"""The correctness gate: a wrong answer fails the run.

Three checks, all against in-process oracles built from ``src/``:

- **Bytes.**  Native answers are a pure function of (replica seed, graph,
  query), so a served top-k body must equal the body an in-process
  ``SimRankService`` renders for the same query.  The process pool gives
  worker ``w`` the seed ``--seed + w``.  Inside one ``/v1/topk_many``
  batch the distinct misses are split by position (``misses[w::W]``), so
  position ``i`` is answered by worker ``i % W`` and the oracle is exact.
  A coalesced single may be answered by either worker, so its body must
  equal the oracle under one of the replica seeds.
- **Accuracy.**  Served top-k pairs against exact Power Method SimRank:
  the largest absolute error must stay within ``eps_a``; precision@10 is
  reported.
- **Durability** (``churn``).  After a SIGKILL, the store recovers to
  exactly the base graph plus every acknowledged burst; a restarted server
  answers probes byte for byte like an oracle on the recovered graph.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api.service import SimRankService
from repro.baselines.power import PowerMethod
from repro.eval.ground_truth import GroundTruth
from repro.eval.metrics import precision_at_k
from repro.graph.csr import as_csr
from repro.server.app import serialize_topk
from repro.storage import recover

from perfbench.workloads import ENGINE_SEED, METHOD, TOPK, WORKERS

#: Power Method iterations: error below 0.6**30 < 3e-7, far under eps_a.
TRUTH_ITERATIONS = 30
DECAY = 0.6


@dataclass
class Gate:
    """Collected failures; the run is correct when there are none."""

    failures: list[str] = field(default_factory=list)
    checked: dict[str, int] = field(default_factory=dict)

    def require(self, condition: bool, message: str) -> bool:
        if not condition:
            self.failures.append(message)
        return condition

    def count(self, what: str, amount: int = 1) -> None:
        self.checked[what] = self.checked.get(what, 0) + amount

    @property
    def ok(self) -> bool:
        return not self.failures


def first_difference(left: bytes, right: bytes) -> int:
    for index, (a, b) in enumerate(zip(left, right)):
        if a != b:
            return index
    return min(len(left), len(right))


class Oracle:
    """In-process ``SimRankService`` answers, one service per replica seed."""

    def __init__(self, graph) -> None:
        self.services = {
            ENGINE_SEED + worker: SimRankService(
                graph, methods=(METHOD,),
                configs={METHOD: {"seed": ENGINE_SEED + worker}},
            )
            for worker in range(WORKERS)
        }
        self._bodies: dict[tuple[int, int], bytes] = {}

    def body(self, seed: int, query: int) -> bytes:
        key = (seed, query)
        if key not in self._bodies:
            result = self.services[seed].topk_many([query], TOPK)[0]
            self._bodies[key] = serialize_topk(result)
        return self._bodies[key]

    def batch_body(self, queries) -> bytes:
        """The whole ``/v1/topk_many`` body for one batch of distinct keys."""
        return b'{"results":[' + b",".join(
            self.body(ENGINE_SEED + position % WORKERS, query)
            for position, query in enumerate(queries)
        ) + b"]}"

    def matches_any(self, query: int, body: bytes) -> bool:
        return any(body == self.body(seed, query) for seed in self.services)

    def close(self) -> None:
        for service in self.services.values():
            service.close()


def check_singles(gate: Gate, oracle: Oracle, pairs, limit: int,
                  rng: np.random.Generator) -> None:
    """``pairs`` are ``(query, body)`` of served singles; check a sample."""
    bodies = defaultdict(set)
    for query, body in pairs:
        bodies[query].add(body)
    queries = sorted(bodies)
    if len(queries) > limit:
        queries = sorted(int(q) for q in rng.choice(queries, limit, replace=False))
    for query in queries:
        for body in bodies[query]:
            gate.count("bodies byte-checked")
            gate.require(
                oracle.matches_any(query, body),
                f"topk {query}: served body matches no replica's oracle body "
                f"(served {body[:80]!r})",
            )


def check_batches(gate: Gate, oracle: Oracle, batches, limit: int,
                  rng: np.random.Generator) -> None:
    """``batches`` are ``(queries, body)`` of served ``topk_many`` calls."""
    batches = list(batches)
    if len(batches) > limit:
        batches = [batches[i] for i in sorted(rng.choice(len(batches), limit, replace=False))]
    for queries, body in batches:
        gate.count("bodies byte-checked")
        expected = oracle.batch_body(queries)
        gate.require(
            body == expected,
            f"topk_many {list(queries)}: served body differs from the oracle "
            f"at byte {first_difference(body, expected)}",
        )


def answers(body: bytes) -> list[dict]:
    """The top-k answers inside one served body (single or batch)."""
    payload = json.loads(body)
    return payload["results"] if "results" in payload else [payload]


def ground_truth(graph, cache_dir: Path | None = None) -> GroundTruth:
    """Exact SimRank, cached on disk by graph digest when ``cache_dir`` is set."""
    path = None
    if cache_dir is not None:
        digest = as_csr(graph).digest()
        path = cache_dir / f"truth-{digest}-c{DECAY}-i{TRUTH_ITERATIONS}.npy"
        if path.exists():
            return GroundTruth(np.load(path), c=DECAY)
    matrix = PowerMethod(graph, c=DECAY).compute(iterations=TRUTH_ITERATIONS)
    if path is not None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp.npy")
        np.save(tmp, matrix)
        tmp.replace(path)
    return GroundTruth(matrix, c=DECAY)


@dataclass
class Accuracy:
    """Served answers scored against exact SimRank."""

    #: the paper's AbsError: each answer's largest |served - exact| over
    #: its top-k pairs, averaged over answers
    max_abs_err: float
    #: the largest error of any single pair (the gate holds it to eps_a)
    worst: float
    precision_at_10: float
    answers: int


def accuracy(gate: Gate, bodies, truth: GroundTruth, eps_a: float) -> Accuracy:
    """Score every distinct served body; fail the gate beyond ``eps_a``."""
    errors, precisions = [], []
    for body in set(bodies):
        for answer in answers(body):
            query = int(answer["query"])
            nodes = [int(node) for node, _ in answer["scores"]]
            scores = np.array([score for _, score in answer["scores"]])
            gate.require(
                answer["method"] == METHOD and len(nodes) == TOPK,
                f"topk {query}: malformed answer {answer!r:.120}",
            )
            exact = truth.single_source(query)
            errors.append(float(np.max(np.abs(scores - exact[nodes]))))
            precisions.append(precision_at_k(nodes, exact, TOPK, query))
    gate.count("answers scored", len(errors))
    if not gate.require(bool(errors), "no served answer to score"):
        return Accuracy(0.0, 0.0, 0.0, 0)
    worst = max(errors)
    gate.require(
        worst <= eps_a,
        f"max |served - exact| = {worst:.4f} exceeds eps_a = {eps_a}",
    )
    return Accuracy(float(np.mean(errors)), worst, float(np.mean(precisions)), len(errors))


def expected_graph(base, bursts):
    """``base`` with every ``(added, removed)`` burst applied."""
    graph = base.copy()
    for added, removed in bursts:
        for source, target in added:
            graph.add_edge(source, target)
        for source, target in removed:
            graph.remove_edge(source, target)
    return graph


def edge_set(graph) -> set[tuple[int, int]]:
    return {
        (source, int(target))
        for source in range(graph.num_nodes)
        for target in graph.out_neighbors(source)
    }


def check_durability(gate: Gate, store_dir: Path, base, acknowledged):
    """Recover the store; its graph must hold exactly the acknowledged bursts.

    Returns the recovered graph, which a restarted server must serve.
    """
    with recover(store_dir) as state:
        recovered = state.graph()
    want = edge_set(expected_graph(base, acknowledged))
    got = edge_set(recovered)
    gate.count("bursts checked for durability", len(acknowledged))
    gate.require(
        got == want,
        f"recovered store differs from the acknowledged bursts: "
        f"{len(want - got)} edges missing, {len(got - want)} unexpected",
    )
    return recovered
