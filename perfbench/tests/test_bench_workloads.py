"""Seeded request streams: determinism per seed, independence of bursts."""

import dataclasses

import numpy as np
import pytest

from repro.datasets import load_dataset

from perfbench.gate import edge_set, expected_graph
from perfbench.workloads import WORKLOADS, build_streams, signature


@pytest.fixture(scope="module")
def graph():
    return load_dataset("wiki-vote", scale="tiny")


def small(name):
    # the real workloads' shapes at rates small enough for a unit test
    return dataclasses.replace(WORKLOADS[name], cruise_rps=40.0, overload_rps=80.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_trace_other_seed_other_trace(graph, name):
    workload = small(name)
    first = build_streams(workload, graph, 11, 1.0, 2.0, 1.0)
    again = build_streams(workload, graph, 11, 1.0, 2.0, 1.0)
    other = build_streams(workload, graph, 12, 1.0, 2.0, 1.0)
    assert signature(first) == signature(again)
    assert [r.body for r in first["cruise"]] == [r.body for r in again["cruise"]]
    assert signature(first) != signature(other)


def test_warmup_draws_from_its_own_stream(graph):
    streams = build_streams(small("topk-hot"), graph, 5, 2.0, 2.0, 0.0)
    assert [r.body for r in streams["warmup"]] != [r.body for r in streams["cruise"]]


def test_schedule_is_open_loop_at_the_offered_rate(graph):
    streams = build_streams(small("topk-hot"), graph, 5, 1.0, 2.0, 1.0)
    cruise = streams["cruise"]
    assert len(cruise) == 80
    assert np.allclose(np.diff([r.at for r in cruise]), 1 / 40.0)


def test_bursts_are_independent(graph):
    streams = build_streams(small("churn"), graph, 3, 2.0, 4.0, 2.0)
    bursts = [(r.added, r.removed) for phase in streams.values() for r in phase if r.is_update]
    assert bursts, "churn must offer update bursts"
    edges = [edge for added, removed in bursts for edge in added + removed]
    assert len(edges) == len(set(edges)), "an edge appears in two bursts"
    base = edge_set(graph)
    assert all(edge not in base for added, _ in bursts for edge in added)
    assert all(edge in base for _, removed in bursts for edge in removed)
    # any order of application lands on the same graph
    forward = edge_set(expected_graph(graph, bursts))
    assert forward == edge_set(expected_graph(graph, bursts[::-1]))


def test_batches_are_one_partition_offered_in_seeded_order(graph):
    first, other = (build_streams(small("batch-cold"), graph, seed, 0.0, 2.0, 0.0)["cruise"]
                    for seed in (9, 10))
    batches = {request.queries for request in first + other}
    keys = [query for batch in batches for query in batch]
    assert len(keys) == len(set(keys)), "a key sits in two different batches"
    assert [r.queries for r in first] != [r.queries for r in other]


def test_batches_hold_distinct_keys(graph):
    streams = build_streams(small("batch-cold"), graph, 9, 0.0, 2.0, 0.0)
    for request in streams["cruise"]:
        assert request.path == "/v1/topk_many"
        assert len(set(request.queries)) == len(request.queries) == WORKLOADS["batch-cold"].batch
