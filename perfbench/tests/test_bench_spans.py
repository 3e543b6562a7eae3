"""Span self time, containment nesting and Chrome trace export."""

import pytest

from perfbench.spans import (
    Span,
    attributed_fraction,
    chrome_trace,
    covered,
    layer_table,
    nest,
    self_time_by_name,
    self_times,
)


def test_covered_is_the_clipped_union():
    assert covered([(1, 4), (3, 6), (8, 9)], 0, 10) == 6
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_child_coverage_once():
    spans = [
        Span("root", 0, 10, "r", 1, None),
        Span("a", 1, 4, "r", 2, 1),
        Span("b", 3, 6, "r", 3, 1),  # overlaps a: the overlap counts once
        Span("c", 8, 9, "r", 4, 1),
        Span("a.inner", 2, 3, "r", 5, 2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(4)
    assert own[2] == pytest.approx(2)
    assert own[5] == pytest.approx(1)


def test_nest_by_containment_and_self_times_add_up():
    spans = nest("req-1", [
        ("request", 0.0, 10.0, {}),
        ("http.parse", 0.0, 1.0, {}),
        ("dispatch.run", 2.0, 8.0, {}),
        ("pool.call", 2.5, 7.5, {}),
        ("engine.compute", 3.0, 7.0, {}),
        ("http.render", 8.5, 9.0, {}),
    ])
    parent = {s.name: next((p.name for p in spans if p.span_id == s.parent), None)
              for s in spans}
    assert parent == {
        "request": None, "http.parse": "request", "dispatch.run": "request",
        "pool.call": "dispatch.run", "engine.compute": "pool.call",
        "http.render": "request",
    }
    assert all(s.trace_id == "req-1" for s in spans)
    assert sum(self_times(spans).values()) == pytest.approx(10.0)
    by_name = self_time_by_name(spans)
    assert by_name["request"] == pytest.approx(10 - 1 - 6 - 0.5)
    assert attributed_fraction(spans) == pytest.approx(0.75)


def test_client_side_spans_are_not_attributed():
    spans = nest("req-2", [
        ("request", 0.0, 10.0, {}),
        ("loadgen.queue", 0.0, 1.0, {}),
        ("transport.in", 1.0, 2.0, {}),
        ("http.parse", 2.0, 2.5, {}),
        ("dispatch.run", 3.0, 8.0, {}),
        ("transport.out", 8.0, 10.0, {}),
    ])
    # every span nests under the root; only parse and dispatch are server layers
    assert sum(self_times(spans).values()) == pytest.approx(10.0)
    assert attributed_fraction(spans) == pytest.approx(0.55)


def test_layer_table_counts_missing_spans_as_zero():
    hit = nest("a", [("request", 0, 2, {}), ("http.parse", 0, 1, {})])
    miss = nest("b", [("request", 0, 4, {}), ("engine.compute", 1, 4, {})])
    rows = {row["span"]: row for row in layer_table([hit, miss])}
    assert rows["engine.compute"]["mean_ms"] == pytest.approx(1500.0)
    assert rows["engine.compute"]["median_ms"] == pytest.approx(1500.0)
    assert rows["http.parse"]["share"] == pytest.approx(0.5 / 3)


def test_chrome_trace_packs_requests_on_disjoint_tracks():
    trees = [
        nest("a", [("request", 0.0, 1.0, {}), ("http.parse", 0.0, 0.5, {})]),
        nest("b", [("request", 0.5, 1.5, {})]),
        nest("c", [("request", 1.2, 2.0, {})]),
    ]
    trace = chrome_trace(trees, {"seed": 1})
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(events) == 4
    tracks = {e["args"]["request"]: e["tid"] for e in events}
    assert tracks["a"] != tracks["b"]  # overlapping requests
    assert tracks["c"] == tracks["a"]  # c starts after a ended
    parse = next(e for e in events if e["name"] == "http.parse")
    assert parse["ts"] == 0 and parse["dur"] == pytest.approx(5e5)
    assert trace["otherData"] == {"seed": 1}
