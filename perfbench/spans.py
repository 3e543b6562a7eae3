"""Spans: one request's layer intervals, their self times, trace export.

A span is a named interval with a parent; every span of one request
carries the request's id.  A span's self time is its duration minus the
part of its interval its children cover, so the self times of one
request's spans add up to the root's duration exactly.  Whatever no
span covers stays as the root's own self time: the unattributed
remainder.  Spans of the ``client`` layer time what happens outside the
server; they are reported but not attributed to any layer.
"""

from __future__ import annotations

import itertools
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

#: the layer of time spent outside the server: queued in the load
#: generator, in transit, or in the client's handling of the response.
CLIENT = "client"
#: span name -> the module (layer) it times.
LAYERS = {
    "request": CLIENT,
    "loadgen.queue": CLIENT,
    "transport.in": CLIENT,
    "http.parse": "server.http",
    "admission": "server.admission",
    "coalesce.wait": "server.coalesce",
    "dispatch.queue": "server.app",
    "dispatch.run": "server.app",
    "pool.call": "parallel.pool",
    "cache.probe": "parallel.cache",
    "engine.compute": "core.native",
    "engine.walks": "core.native",
    "engine.trie": "core.native",
    "engine.sweep": "core.native",
    "maint.apply": "parallel.pool",
    "maint.publish": "parallel.shm",
    "store.log": "storage.wal",
    "store.checkpoint": "storage.store",
    "http.render": "server.http",
    "transport.out": CLIENT,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    trace_id: str
    span_id: int = 0
    parent: int | None = None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(a, low), min(b, high)) for a, b in intervals if min(b, high) > max(a, low)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[int, float]:
    """``{span_id: duration - child coverage}`` for one request's spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: span.duration - covered(children[span.span_id], span.start, span.end)
        for span in spans
    }


def nest(trace_id: str, intervals, ids=None) -> list[Span]:
    """One request's spans from ``(name, start, end, args)`` intervals.

    Each interval's parent is the innermost earlier interval that contains
    it (ties: the longer one is the parent), so layer calls nest as they
    happened in time.  The first interval must be the request's root.
    """
    ids = ids if ids is not None else itertools.count(1)
    order = sorted(intervals, key=lambda item: (item[1], -item[2]))
    stack: list[Span] = []
    spans = []
    for name, start, end, args in order:
        while stack and not (stack[-1].start <= start and end <= stack[-1].end):
            stack.pop()
        span = Span(name, start, end, trace_id, next(ids),
                    stack[-1].span_id if stack else None, dict(args or {}))
        spans.append(span)
        stack.append(span)
    return spans


def self_time_by_name(spans) -> dict[str, float]:
    """One request's self time summed per span name."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.span_id]
    return dict(totals)


def layer_table(trees) -> list[dict]:
    """Per span name: median and mean self time over requests, and share.

    A request without a given span counts as zero for it; ``share`` is the
    mean self time over the mean request latency.
    """
    rows = [self_time_by_name(spans) for spans in trees]
    latency = statistics.fmean(
        next(s.duration for s in spans if s.parent is None) for spans in trees
    )
    names = sorted({name for row in rows for name in row},
                   key=lambda name: -statistics.fmean(row.get(name, 0.0) for row in rows))
    table = []
    for name in names:
        values = [row.get(name, 0.0) for row in rows]
        table.append({
            "span": name,
            "layer": LAYERS.get(name, "?"),
            "median_ms": statistics.median(values) * 1e3,
            "mean_ms": statistics.fmean(values) * 1e3,
            "share": statistics.fmean(values) / latency if latency else 0.0,
        })
    return table


def attributed_fraction(spans) -> float:
    """Share of the request's latency in the self time of named server layers.

    The root's own self time (what no span covers) and the client-side
    spans (the load generator's queue, transit, the client's handling of
    the response) do not count.
    """
    root = next(span for span in spans if span.parent is None)
    if root.duration <= 0:
        return 1.0
    own = self_times(spans)
    named = sum(own[span.span_id] for span in spans
                if LAYERS.get(span.name, CLIENT) != CLIENT)
    return named / root.duration


def chrome_trace(trees, metadata: dict | None = None) -> dict:
    """Chrome trace-event JSON (opens in Perfetto and chrome://tracing).

    Requests are packed greedily onto as few tracks as keep each track's
    requests disjoint in time, so every track nests properly.
    """
    trees = sorted(trees, key=lambda spans: min(s.start for s in spans))
    origin = min((s.start for spans in trees for s in spans), default=0.0)
    lane_ends: list[float] = []
    events = []
    for spans in trees:
        start = min(s.start for s in spans)
        end = max(s.end for s in spans)
        lane = next((i for i, last in enumerate(lane_ends) if last <= start), None)
        if lane is None:
            lane = len(lane_ends)
            lane_ends.append(end)
        lane_ends[lane] = end
        for span in spans:
            events.append({
                "name": span.name,
                "cat": LAYERS.get(span.name, "?"),
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 1,
                "tid": lane + 1,
                "args": {"request": span.trace_id, "span": span.span_id,
                         "parent": span.parent, **span.args},
            })
    for lane in range(len(lane_ends)):
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": lane + 1,
                       "args": {"name": f"requests {lane + 1}"}})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": metadata or {}}
