"""The workloads: graphs, offered rates and seeded request streams.

A workload fixes the graph, the serving configuration and the shape of
the traffic; the run's ``--seed`` draws the concrete requests.  The same
seed always yields the same streams (see :func:`signature`), a different
seed different ones.  The server receives only these requests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from repro.datasets import load_dataset

#: the one method every workload serves (named explicitly: ``serve``
#: still defaults to another engine).
METHOD = "probesim-native"
#: the server's ``--seed``: fixed, so served answers are reproducible.
ENGINE_SEED = 7
WORKERS = 2
TOPK = 10
#: stream ids of the phases; the warm-up draws from its own stream, so it
#: never previews the timed requests.
PHASES = ("warmup", "cruise", "overload")


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one serving configuration."""

    name: str
    dataset: str
    durable: bool  # serve from a --store (fsync on) instead of a --snapshot
    cache_size: int  # --cache-size; 0 turns the result cache off
    batch: int  # keys per read: 1 uses /v1/topk, more use /v1/topk_many
    zipf: float  # key skew exponent; 0 draws keys uniformly
    write_frac: float  # share of requests that are apply_edges bursts
    max_burst: int  # edges per burst are drawn from 1..max_burst
    cruise_rps: float  # offered rate of the latency phase
    overload_rps: float  # offered rate of the throughput phase


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="topk-hot",
            dataset="hepph", durable=False, cache_size=512, batch=1,
            zipf=1.1, write_frac=0.0, max_burst=0,
            cruise_rps=100.0, overload_rps=1200.0,
        ),
        Workload(
            name="batch-cold",
            dataset="wiki-vote", durable=False, cache_size=0, batch=8,
            zipf=0.0, write_frac=0.0, max_burst=0,
            cruise_rps=7.0, overload_rps=60.0,
        ),
        Workload(
            name="churn",
            dataset="hepph", durable=True, cache_size=512, batch=1,
            zipf=1.1, write_frac=0.1, max_burst=4,
            cruise_rps=60.0, overload_rps=1000.0,
        ),
    )
}


@dataclass(frozen=True)
class Request:
    """One scheduled request: due ``at`` seconds after its phase starts."""

    at: float
    path: str
    body: bytes
    queries: tuple[int, ...] = ()
    added: tuple[tuple[int, int], ...] = ()
    removed: tuple[tuple[int, int], ...] = ()

    @property
    def is_update(self) -> bool:
        return self.path == "/v1/apply_edges"


def load_graph(workload: Workload):
    """The workload's stand-in graph (deterministic, seed-independent)."""
    return load_dataset(workload.dataset, scale="small")


def popularity(num_nodes: int) -> np.ndarray:
    """Node ids from most to least requested.

    The ranking belongs to the workload, not to the run: it comes from a
    fixed generator, so every seed stresses the same hot set and runs
    differ only in the order and mix of requests.
    """
    return np.random.default_rng(0).permutation(num_nodes)


def zipf_weights(count: int, exponent: float) -> np.ndarray:
    """Probability of each popularity rank under a Zipf law."""
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


class BurstSource:
    """Update bursts that never touch the same edge twice.

    Inserts draw node pairs that are not base-graph edges and were never
    drawn before; deletes take base-graph edges in a seeded order.  Bursts
    are therefore independent: any subset applied in any order gives the
    same graph.  Two bursts in flight on the two connections cannot make
    each other fail, and the durability check needs only the set of
    acknowledged bursts.
    """

    def __init__(self, graph, rng: np.random.Generator) -> None:
        self.num_nodes = graph.num_nodes
        self.rng = rng
        self.taken = {
            (source, int(target))
            for source in range(graph.num_nodes)
            for target in graph.out_neighbors(source)
        }
        base = sorted(self.taken)
        self.deletable = [base[i] for i in rng.permutation(len(base))]
        self.cursor = 0

    def burst(self, size: int):
        """``(added, removed)`` edge tuples for one burst of ``size`` edges."""
        added, removed = [], []
        for _ in range(size):
            if self.rng.random() < 0.5:
                while True:
                    source, target = (int(v) for v in self.rng.integers(0, self.num_nodes, 2))
                    if source != target and (source, target) not in self.taken:
                        break
                self.taken.add((source, target))
                added.append((source, target))
            else:
                removed.append(self.deletable[self.cursor])
                self.cursor += 1
        return tuple(added), tuple(removed)


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("ascii")


def topk_request(query: int, at: float = 0.0) -> Request:
    """One ``/v1/topk`` read of ``query``."""
    body = _encode({"query": query, "k": TOPK, "method": METHOD})
    return Request(at, "/v1/topk", body, queries=(query,))


def _phase(workload, num_nodes, ranking, weights, bursts, rng, rate, seconds):
    count = int(round(rate * seconds))
    if workload.batch == 1:
        ranks = rng.choice(num_nodes, size=count, p=weights)
    # every period-th request is a burst: the write load is the same for
    # every seed, which draws only the keys, the edges and the burst sizes
    period = round(1 / workload.write_frac) if workload.write_frac else 0
    sizes = rng.integers(1, max(workload.max_burst, 1) + 1, size=count)
    # batches are a fixed partition of the nodes, a property of the
    # workload like the popularity ranking; the seed draws only the order
    # they are offered in.  Every seed offers each batch once per pass, so
    # runs do not differ in how many expensive keys they draw.
    groups = [tuple(int(v) for v in ranking[i:i + workload.batch])
              for i in range(0, num_nodes - workload.batch + 1, workload.batch)
              ] if workload.batch > 1 else []
    order: list[int] = []
    requests = []
    for i in range(count):
        at = i / rate
        if period and i % period == period - 1:
            added, removed = bursts.burst(int(sizes[i]))
            body = _encode({
                "added": [list(edge) for edge in added],
                "removed": [list(edge) for edge in removed],
            })
            requests.append(Request(at, "/v1/apply_edges", body,
                                    added=added, removed=removed))
        elif workload.batch == 1:
            requests.append(topk_request(int(ranking[ranks[i]]), at))
        else:
            if not order:
                order = [int(v) for v in rng.permutation(len(groups))]
            keys = groups[order.pop()]
            body = _encode({"queries": list(keys), "k": TOPK, "method": METHOD})
            requests.append(Request(at, "/v1/topk_many", body, queries=keys))
    return requests


def build_streams(workload: Workload, graph, seed: int, warmup_s: float,
                  cruise_s: float, overload_s: float) -> dict[str, list[Request]]:
    """The warm-up, cruise and overload request streams of one run."""
    num_nodes = graph.num_nodes
    ranking = popularity(num_nodes)
    weights = zipf_weights(num_nodes, workload.zipf) if workload.zipf else None
    bursts = BurstSource(graph, np.random.default_rng([seed, len(PHASES)]))
    plan = {
        # offered at the overload rate: the server runs flat out, so the
        # warm-up fills the cache as far as the key skew lets it in the time
        "warmup": (workload.overload_rps, warmup_s),
        "cruise": (workload.cruise_rps, cruise_s),
        "overload": (workload.overload_rps, overload_s),
    }
    streams = {}
    for index, phase in enumerate(PHASES):
        rate, seconds = plan[phase]
        rng = np.random.default_rng([seed, index])
        streams[phase] = _phase(workload, num_nodes, ranking, weights, bursts,
                                rng, rate, seconds)
    return streams


def signature(streams: dict[str, list[Request]]) -> str:
    """Short digest of every request of every phase (the trace signature)."""
    digest = hashlib.sha256()
    for phase in PHASES:
        for request in streams[phase]:
            digest.update(f"{phase} {request.at:.6f} {request.path} ".encode())
            digest.update(request.body)
            digest.update(b"\n")
    return digest.hexdigest()[:16]
