"""The correctness gate passes served truth and fails a corrupted body or a lost update."""

import json

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.graph.dynamic import EdgeUpdate
from repro.storage import PersistentGraphStore

from perfbench.gate import (
    Gate,
    Oracle,
    accuracy,
    check_batches,
    check_durability,
    check_singles,
    ground_truth,
)
from perfbench.workloads import ENGINE_SEED, BurstSource


@pytest.fixture(scope="module")
def graph():
    return load_dataset("wiki-vote", scale="tiny")


@pytest.fixture(scope="module")
def oracle(graph):
    oracle = Oracle(graph)
    yield oracle
    oracle.close()


def corrupt(body: bytes) -> bytes:
    """Flip one digit of the first score: still valid JSON, wrong answer."""
    at = body.index(b'"scores":[[') + len(b'"scores":[[')
    at = body.index(b".", at) + 1
    digit = body[at:at + 1]
    return body[:at] + (b"1" if digit != b"1" else b"2") + body[at + 1:]


def test_served_singles_pass_and_a_corrupted_one_fails(oracle):
    rng = np.random.default_rng(0)
    served = [(q, oracle.body(ENGINE_SEED + q % 2, q)) for q in range(20)]
    gate = Gate()
    check_singles(gate, oracle, served, limit=50, rng=rng)
    assert gate.ok, gate.failures
    bad = Gate()
    check_singles(bad, oracle, served[:-1] + [(19, corrupt(served[-1][1]))], 50, rng)
    assert not bad.ok and "topk 19" in bad.failures[0]


def test_batches_are_checked_per_position(oracle):
    rng = np.random.default_rng(0)
    queries = (5, 9, 13, 2)
    body = oracle.batch_body(queries)
    gate = Gate()
    check_batches(gate, oracle, [(queries, body)], 4, rng)
    assert gate.ok, gate.failures
    # the same answers with the replica seeds swapped are not what the pool serves
    swapped = b'{"results":[' + b",".join(
        oracle.body(ENGINE_SEED + 1 - i % 2, q) for i, q in enumerate(queries)) + b"]}"
    bad = Gate()
    check_batches(bad, oracle, [(queries, swapped)], 4, rng)
    assert not bad.ok


def test_accuracy_flags_an_answer_outside_eps(graph, oracle):
    truth = ground_truth(graph)
    bodies = [oracle.body(ENGINE_SEED, q) for q in range(10)]
    gate = Gate()
    scored = accuracy(gate, bodies, truth, eps_a=0.1)
    assert gate.ok and scored.answers == 10
    assert 0 < scored.max_abs_err <= scored.worst <= 0.1
    assert 0 < scored.precision_at_10 <= 1
    answer = json.loads(bodies[0])
    answer["scores"][0][1] += 0.5
    bad = Gate()
    accuracy(bad, [json.dumps(answer).encode()], truth, eps_a=0.1)
    assert not bad.ok and "exceeds eps_a" in bad.failures[0]


def test_dropped_update_fails_durability(tmp_path, graph):
    source = BurstSource(graph, np.random.default_rng(4))
    bursts = [source.burst(3) for _ in range(4)]
    with PersistentGraphStore.create(tmp_path / "store", graph) as store:
        for added, removed in bursts:
            store.log([EdgeUpdate("insert", s, t) for s, t in added]
                      + [EdgeUpdate("delete", s, t) for s, t in removed])
    gate = Gate()
    check_durability(gate, tmp_path / "store", graph, bursts)
    assert gate.ok, gate.failures
    dropped = Gate()
    check_durability(dropped, tmp_path / "store", graph, bursts[:-1])
    assert not dropped.ok and "differs from the acknowledged bursts" in dropped.failures[0]
