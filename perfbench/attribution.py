"""Join client outcomes with server records into per-request span trees.

The client knows when each request was due, sent and answered; the traced
server (``traced_serve.py``) knows what each layer did for it, keyed by
the ``X-Request-Id`` the client sent or by the coalesced batch the request
joined.  Both sides read ``time.monotonic``, one clock for the machine, so
their timestamps share an axis.

Worker processes are not traced.  Inside a ``pool.call`` span the
slowest worker's summed ``SimRankResult.elapsed`` becomes an
``engine.compute`` span; the rest of the call is IPC and pool
bookkeeping.  Under ``engine.compute`` the walks / trie / sweep spans
take the durations the in-process replay measured for the same queries
(a query outside the replay budget takes the mean replayed split), scaled
down only if they would overrun the served compute time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.replay import Stages
from perfbench.spans import attributed_fraction, nest
from perfbench.stats import percentile, supports

#: dispatch-thread records, owned by a request or by a coalesced batch.
OWNED = ("dispatch.queue", "dispatch.run", "pool.call", "maint.apply",
         "maint.publish", "store.log", "store.checkpoint")
#: client-side spans of the transit between client and server.
TRANSPORT = ("transport.in", "transport.out")
#: event-loop records of one request.
PER_REQUEST = ("http.parse", "admission", "coalesce.wait", "http.serialize",
               "http.render")


def owner_key(record) -> tuple[str, object] | None:
    if record.get("batch") is not None:
        return ("b", record["batch"])
    if record.get("rid") is not None:
        return ("r", record["rid"])
    return None


class Records:
    """Server records indexed by request and by owner."""

    def __init__(self, records) -> None:
        self.all = records
        self.by_rid = defaultdict(lambda: defaultdict(list))
        self.by_owner = defaultdict(lambda: defaultdict(list))
        for record in records:
            name = record["name"]
            if name in PER_REQUEST and record.get("rid") is not None:
                self.by_rid[record["rid"]][name].append(record)
            elif name in OWNED:
                key = owner_key(record)
                if key is not None:
                    self.by_owner[key][name].append(record)

    def named(self, name: str, start: float, end: float) -> list[dict]:
        """Records of ``name`` that started inside ``[start, end]``."""
        return [r for r in self.all if r["name"] == name and start <= r["start"] <= end]


def split_by_worker(call) -> tuple[list[float], list[list[int]]]:
    """Per-worker summed compute seconds and queries of one pool call."""
    workers = call["workers"]
    seconds = [0.0] * workers
    queries: list[list[int]] = [[] for _ in range(workers)]
    for position, (query, elapsed) in enumerate(call["computed"]):
        seconds[position % workers] += elapsed
        queries[position % workers].append(query)
    return seconds, queries


def mean_stages(stages):
    """The average replayed query's stage split, or None before any replay."""
    if not stages:
        return None
    return Stages(*(statistics.fmean(getattr(s, name) for s in stages.values())
                    for name in ("walks", "trie", "sweep", "dense_levels",
                                 "sparse_levels", "trie_nodes")))


def pool_intervals(call, stages) -> list[tuple]:
    intervals = [("pool.call", call["start"], call["end"],
                  {"queries": call["queries"], "computed": len(call["computed"])})]
    begin = call["start"]
    if call["probe"] is not None:
        intervals.append(("cache.probe", call["probe"][0], call["probe"][1], {}))
        begin = call["probe"][1]
    seconds, queries = split_by_worker(call)
    if not call["computed"]:
        return intervals
    slowest = max(range(len(seconds)), key=seconds.__getitem__)
    finish = min(begin + seconds[slowest], call["end"])
    intervals.append(("engine.compute", begin, finish,
                      {"worker": slowest, "queries": queries[slowest]}))
    # a query the replay budget did not cover takes the mean replayed split
    fallback = mean_stages(stages)
    known = [stages.get(q, fallback) for q in queries[slowest]]
    known = [s for s in known if s is not None]
    parts = [("engine.walks", sum(s.walks for s in known)),
             ("engine.trie", sum(s.trie for s in known)),
             ("engine.sweep", sum(s.sweep for s in known))]
    replayed = sum(part for _, part in parts)
    if replayed > 0:
        scale = min(1.0, (finish - begin) / replayed)
        cursor = begin
        for name, part in parts:
            intervals.append((name, cursor, cursor + part * scale, {}))
            cursor += part * scale
    return intervals


def request_tree(rid: str, outcome, request, records: Records, stages):
    """One request's span tree (root ``request`` first).

    The server's spans run from the arrival of the request head to the
    rendered response.  What lies outside them, the load generator's
    queue and the transit between client and server both ways (kernel,
    event loops, the client's own response handling), gets client-side
    spans, which :func:`perfbench.spans.attributed_fraction` leaves out.
    """
    mine = records.by_rid.get(rid, {})
    intervals = [
        ("request", outcome.scheduled, outcome.done, {"path": request.path}),
        ("loadgen.queue", outcome.scheduled, outcome.sent, {}),
    ]
    parsed = mine.get("http.parse")
    if parsed:
        intervals.append(("transport.in", outcome.sent, parsed[0]["start"], {}))
        intervals.append(("http.parse", parsed[0]["start"], parsed[0]["end"], {}))
    for record in mine.get("admission", []):
        intervals.append(("admission", record["start"], record["end"], {}))
    waits = mine.get("coalesce.wait", [])
    for record in waits:
        intervals.append(("coalesce.wait", record["start"], record["end"],
                          {"batch": record["batch"]}))
    key = ("b", waits[0]["batch"]) if waits else ("r", rid)
    owned = records.by_owner.get(key, {})
    for name in OWNED:
        for record in owned.get(name, []):
            if name == "pool.call":
                intervals.extend(pool_intervals(record, stages))
            else:
                intervals.append((name, record["start"], record["end"], {}))
    pieces = mine.get("http.serialize", []) + mine.get("http.render", [])
    if pieces:
        render_start = min(p["start"] for p in pieces)
        render_end = max(p["end"] for p in pieces)
        intervals.append(("http.render", render_start, render_end, {}))
        intervals.append(("transport.out", render_end, outcome.done, {}))
    return nest(rid, intervals)


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _mean_ms(values) -> float:
    return statistics.fmean(values) * 1e3 if values else 0.0


def _delta(after: dict, before: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def layer_metrics(phase, stream, tag, records: Records, trees, stages,
                  setup_records, before: dict, after: dict) -> dict[str, float]:
    """The per-layer metrics of one traced phase (see METRICS.md)."""
    window = phase.end - phase.start
    spans = defaultdict(list)
    for tree in trees:
        for span in tree:
            spans[span.name].append(span.duration)
    rids = {f"{tag}{o.index}" for o in phase.outcomes}
    owned = [r for key, group in records.by_owner.items()
             if (key[0] == "r" and key[1] in rids) or key[0] == "b"
             for items in group.values() for r in items
             if phase.start <= r["start"] <= phase.end]
    by_name = defaultdict(list)
    for record in owned:
        by_name[record["name"]].append(record)

    calls = by_name["pool.call"]
    computed = [elapsed for call in calls for _, elapsed in call["computed"]]
    ipc, imbalance, busy = [], [], 0.0
    for call in calls:
        seconds, _ = split_by_worker(call)
        probe = call["probe"][1] - call["probe"][0] if call["probe"] else 0.0
        ipc.append(call["end"] - call["start"] - probe - max(seconds))
        busy += sum(seconds)
        if len(call["computed"]) >= call["workers"]:
            imbalance.append(max(seconds) / statistics.fmean(seconds))
    workers = calls[0]["workers"] if calls else 1
    batches = [r for r in records.named("coalesce.batch", phase.start, phase.end)]

    hits = _delta(after, before, "repro_cache_hits")
    misses = _delta(after, before, "repro_cache_misses")
    saved = _delta(after, before, "repro_coalesce_dedup_saved")
    batched = _delta(after, before, "repro_coalesce_batched_queries")
    shed = sum(_delta(after, before, name) for name in after
               if name.startswith("repro_admission_") and name.endswith("_shed"))

    logs = by_name["store.log"]
    checkpoints = by_name["store.checkpoint"]
    applied = sum(r["updates"] for r in by_name["maint.apply"])

    service = [r for r in setup_records if r["name"] == "setup.service"]
    attach = [r for r in setup_records if r["name"] == "setup.attach"
              or (r["name"] == "maint.publish" and owner_key(r) is None)]
    attach_s = sum(r["end"] - r["start"] for r in attach)
    service_s = sum(r["end"] - r["start"] for r in service)
    inside = sum(r["end"] - r["start"] for r in attach for s in service
                 if s["start"] <= r["start"] and r["end"] <= s["end"])

    reads = [o for o in phase.outcomes if not stream[o.index].is_update]
    updates = [o for o in phase.outcomes if stream[o.index].is_update]
    read_ms = [o.latency * 1e3 for o in reads if o.ok]
    update_ms = [o.latency * 1e3 for o in updates if o.ok]
    late_ms = [o.lateness * 1e3 for o in phase.outcomes]

    return {
        "http.parse_ms": _median_ms(spans["http.parse"]),
        "http.render_ms": _median_ms(spans["http.render"]),
        "transport_ms": _median_ms([sum(s.duration for s in tree if s.name in TRANSPORT)
                                    for tree in trees]),
        "admission.shed": shed,
        "coalesce.wait_ms": _median_ms(spans["coalesce.wait"]),
        "coalesce.batch_size": (statistics.fmean(len(b["queries"]) for b in batches)
                                if batches else 0.0),
        "coalesce.dedup_frac": saved / batched if batched else 0.0,
        "dispatch.queue_ms": _median_ms([r["end"] - r["start"] for r in by_name["dispatch.queue"]]),
        "dispatch.busy_frac": sum(r["end"] - r["start"] for r in by_name["dispatch.run"]) / window,
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.invalidated": _delta(after, before, "repro_cache_invalidations"),
        "pool.call_ms": _median_ms([r["end"] - r["start"] for r in calls]),
        "pool.ipc_ms": _median_ms(ipc),
        "pool.worker_busy_frac": busy / (workers * window),
        "pool.imbalance": statistics.fmean(imbalance) if imbalance else 0.0,
        # means, not medians: most uniform keys are cheap periphery nodes,
        # and the engine's cost is carried by the few expensive ones
        "engine.compute_ms": _mean_ms(computed),
        "engine.walks_ms": _mean_ms([s.walks for s in stages.values()]),
        "engine.trie_ms": _mean_ms([s.trie for s in stages.values()]),
        "engine.sweep_ms": _mean_ms([s.sweep for s in stages.values()]),
        "engine.dense_levels": (statistics.fmean(s.dense_levels for s in stages.values())
                                if stages else 0.0),
        "engine.sparse_levels": (statistics.fmean(s.sparse_levels for s in stages.values())
                                 if stages else 0.0),
        "engine.trie_nodes": (statistics.fmean(s.trie_nodes for s in stages.values())
                              if stages else 0.0),
        "maint.apply_ms": _median_ms([r["end"] - r["start"] for r in by_name["maint.apply"]]),
        "maint.publish_ms": _median_ms([r["end"] - r["start"] for r in by_name["maint.publish"]]),
        "maint.epochs": float(len(by_name["maint.publish"])),
        "store.log_ms": _median_ms([r["end"] - r["start"] for r in logs]),
        "store.checkpoint_ms": _median_ms([r["end"] - r["start"] for r in checkpoints]),
        "store.bytes_per_update": (sum(r["bytes"] for r in logs + checkpoints) / applied
                                   if applied else 0.0),
        "setup.imports_ms": sum(r["end"] - r["start"] for r in setup_records
                                if r["name"] == "setup.imports") * 1e3,
        "setup.attach_ms": attach_s * 1e3,
        "setup.workers_ms": (service_s - inside) * 1e3,
        "fail_frac": phase.failed / phase.sent if phase.sent else 0.0,
        "p99_ms": percentile(read_ms, 99) if supports(len(read_ms), 99) else 0.0,
        "update_p50_ms": percentile(update_ms, 50) if update_ms else 0.0,
        "update_p90_ms": percentile(update_ms, 90) if supports(len(update_ms), 90) else 0.0,
        "lateness_p50_ms": percentile(late_ms, 50) if late_ms else 0.0,
        "lateness_max_ms": max(late_ms, default=0.0),
        "trace.attributed_frac": (statistics.median(attributed_fraction(t) for t in trees)
                                  if trees else 0.0),
    }
