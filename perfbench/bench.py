"""One benchmark run: set up, drive, check, measure.

An untraced run (``trace=False``) measures the end-to-end metrics:

1. build the workload's graph and its seeded request streams, and write
   the graph to a snapshot file (read-only workloads) or a fresh durable
   store (``churn``);
2. spawn ``repro serve`` :data:`SETUP_SPAWNS` times and time each spawn
   to its first 200 on ``/healthz`` (``setup_s`` is the median); the last
   server stays up;
3. warm it up with a stream drawn from another seed, untimed;
4. offer the cruise stream (latency) and the overload stream (peak
   throughput) over two keep-alive connections;
5. run the correctness gate (``gate.py``): byte checks against
   in-process oracles, accuracy against the Power Method, and for
   ``churn`` a SIGKILL, recovery and restart drill.

A traced run (``trace=True``) offers the first quarter of the cruise
stream to an untraced server and three quarters to a traced one
(``traced_serve.py``), replays the engine stages in-process
(``replay.py``), assembles one span tree per request
(``attribution.py``), writes a Chrome trace, and reports per-layer
metrics plus the tracing overhead (traced minus untraced median).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from repro.core.config import ProbeSimConfig
from repro.core.native import native_backend
from repro.storage import PersistentGraphStore, write_snapshot

from perfbench import gate as gates
from perfbench.attribution import Records, layer_metrics, request_tree
from perfbench.loadgen import TIMEOUT_S, run_phase
from perfbench.replay import EngineReplay
from perfbench.server import HOST, Server, free_port, serve_args
from perfbench.spans import chrome_trace, layer_table
from perfbench.stats import (
    best_window_percentile, best_window_rate, min_samples, percentile, supports,
)
from perfbench.workloads import (
    ENGINE_SEED, WORKERS, WORKLOADS, build_streams, load_graph, popularity,
    signature, topk_request,
)

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
#: share of the run's seconds spent at the cruise rate; the rest is
#: overload, which feeds only the reported (not gated) peak rate.
CRUISE_SHARE = 0.85
WARMUP_S = 3.0
#: interpreter start-up and imports vary by a quarter from spawn to spawn
#: on a shared machine; the median of this many is steady.
SETUP_SPAWNS = 9
CONNECTIONS = 2
#: served singles / batches whose bytes are compared with the oracle.
SINGLES_CHECKED = 200
BATCHES_CHECKED = 4
#: hot keys probed, one at a time, on the server restarted after the crash
#: (their mean error is churn's max_abs_err: 128 probes spread by 0.12
#: across seeds).
PROBES = 256
#: distinct (replica seed, query) engine replays of one traced run.
REPLAY_BUDGET = 300
#: share of a traced run's seconds offered to the traced server; the
#: rest goes to the untraced server the tracing overhead is measured
#: against.  Long enough for a churn p99 (1,000 reads) and update p90.
TRACED_SHARE = 0.75


@dataclass
class RunResult:
    """What one run reports: text lines, metrics, counts, correctness."""

    lines: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gate: gates.Gate = field(default_factory=gates.Gate)


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """Digest of every file under ``src/`` (identifies checkouts without git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def env_stamp(seed: int, trace_signature: str, traced: bool) -> dict:
    """What makes two reports comparable; reports with different stamps are not."""
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "native_backend": native_backend(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "workload_seed": seed,
        "trace_signature": trace_signature,
        "traced": traced,
    }


def prepare_source(workload, graph, directory: Path) -> Path:
    """Write the graph where the server will read it: snapshot or new store."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload.durable:
        store = directory / "store"
        shutil.rmtree(store, ignore_errors=True)
        PersistentGraphStore.create(store, graph).close()
        return store
    path = directory / "graph.csr"
    write_snapshot(graph, path)
    return path


def spawn(workload, source: Path, work: Path, name: str, traced: bool = False) -> Server:
    spans = work / f"spans-{name}.json" if traced else None
    return Server(ROOT, serve_args(workload, source, free_port()),
                  work / f"server-{name}.log", spans)


def started(workload, source, work, name, traced=False) -> tuple[Server, float]:
    server = spawn(workload, source, work, name, traced)
    try:
        return server, server.wait_ready()
    except BaseException:
        server.stop()
        raise


def drive(server: Server, requests, seconds: float, name: str, tag=None):
    return run_phase(HOST, server.port, requests, seconds, name, CONNECTIONS, tag)


def latencies_ms(phase, stream, updates: bool) -> list[float]:
    """Latency of every sent read (or update); a failure counts as the timeout."""
    return [
        (o.latency if o.ok else TIMEOUT_S) * 1e3
        for o in phase.outcomes if stream[o.index].is_update == updates
    ]


def phase_line(phase) -> str:
    counts = phase.counts()
    late = [o.lateness * 1e3 for o in phase.outcomes] or [0.0]
    errors = [o.error or f"HTTP {o.status}" for o in phase.outcomes if not o.ok]
    return (f"  {phase.name:<9} due {counts['due']:>5}  sent {counts['sent']:>5}  "
            f"ok {counts['succeeded']:>5}  failed {counts['failed']:>3}  "
            f"not sent {counts['not_sent']:>5}  lateness p50 "
            f"{statistics.median(late):.3f} ms max {max(late):.3f} ms"
            + (f"  first failure: {errors[0]}" if errors else ""))


def acknowledged(streams, phases) -> tuple[list, int]:
    """Bursts the server answered 200, and updates with no clear outcome."""
    acked, unclear = [], 0
    for phase in phases:
        stream = streams[phase.name]
        for outcome in phase.outcomes:
            request = stream[outcome.index]
            if request.is_update:
                if outcome.ok:
                    acked.append((request.added, request.removed))
                elif outcome.status == 0:
                    unclear += 1
    return acked, unclear


def check_static(result: RunResult, workload, graph, streams, phases, seed) -> None:
    """Byte and accuracy checks of a read-only workload's served answers."""
    served = [(streams[p.name][o.index], o.body) for p in phases for o in p.outcomes if o.ok]
    rng = np.random.default_rng([seed, 7])
    oracle = gates.Oracle(graph)
    try:
        if workload.batch == 1:
            gates.check_singles(result.gate, oracle,
                                [(r.queries[0], body) for r, body in served],
                                SINGLES_CHECKED, rng)
        else:
            gates.check_batches(result.gate, oracle,
                                [(r.queries, body) for r, body in served],
                                BATCHES_CHECKED, rng)
    finally:
        oracle.close()
    truth = gates.ground_truth(graph, WORK / "cache")
    record_accuracy(result, gates.accuracy(result.gate, [body for _, body in served], truth,
                                           ProbeSimConfig().eps_a))


def record_accuracy(result: RunResult, scored: gates.Accuracy) -> None:
    result.metrics["max_abs_err"] = scored.max_abs_err
    result.metrics["precision_at_10"] = scored.precision_at_10
    result.lines.append(f"  accuracy over {scored.answers} answers: max_abs_err "
                        f"{scored.max_abs_err:.5f} (worst pair {scored.worst:.5f}) "
                        f"precision_at_10 {scored.precision_at_10:.4f}")


def crash_drill(result: RunResult, workload, graph, store: Path, server: Server,
                streams, phases, work: Path) -> None:
    """SIGKILL, recover, restart, probe: the churn workload's durability gate."""
    server.kill()
    acked, unclear = acknowledged(streams, phases)
    result.gate.require(unclear == 0, f"{unclear} update bursts ended without a response")
    recovered = gates.check_durability(result.gate, store, graph, acked)
    probes = [topk_request(int(q)) for q in popularity(graph.num_nodes)[:PROBES]]
    restarted, _ = started(workload, store, work, "restarted")
    try:
        # one connection, one request at a time: every probe is a batch of
        # one distinct miss, which the pool always gives to worker 0
        answered = run_phase(HOST, restarted.port, probes, TIMEOUT_S, "probes", 1)
    finally:
        restarted.stop()
    oracle = gates.Oracle(recovered)
    try:
        bodies = []
        for outcome in answered.outcomes:
            query = probes[outcome.index].queries[0]
            result.gate.count("bodies byte-checked")
            result.gate.require(
                outcome.ok and outcome.body == oracle.body(ENGINE_SEED, query),
                f"probe {query} after restart: status {outcome.status}, body differs "
                f"from the oracle on the recovered graph",
            )
            bodies.append(outcome.body or b"")
        result.gate.require(answered.sent == len(probes), "not every probe was sent")
    finally:
        oracle.close()
    truth = gates.ground_truth(recovered)
    record_accuracy(result, gates.accuracy(result.gate, [b for b in bodies if b], truth,
                                           ProbeSimConfig().eps_a))


def untraced(workload, seed: int, seconds: float, work: Path) -> RunResult:
    result = RunResult()
    graph = load_graph(workload)
    cruise_s = seconds * CRUISE_SHARE
    overload_s = seconds - cruise_s
    streams = build_streams(workload, graph, seed, WARMUP_S, cruise_s, overload_s)
    stamp = env_stamp(seed, signature(streams), traced=False)
    lines = result.lines
    lines.append(f"workload {workload.name}  seed {seed}  seconds {seconds:g}  (untraced)")
    lines.append("  env " + json.dumps(stamp, sort_keys=True))
    source = prepare_source(workload, graph, work / "source")

    setup_times = []
    for spawn_index in range(SETUP_SPAWNS):
        server, ready = started(workload, source, work, f"setup{spawn_index}")
        setup_times.append(ready)
        if spawn_index < SETUP_SPAWNS - 1:
            server.stop()
    try:
        warm = drive(server, streams["warmup"], WARMUP_S, "warmup")
        cruise = drive(server, streams["cruise"], cruise_s, "cruise")
        overload = drive(server, streams["overload"], overload_s, "overload")
        served = server.metrics()
        rss = server.rss_mb()
        if workload.durable:
            # warm-up bursts were acknowledged too, so they must survive
            crash_drill(result, workload, graph, source, server, streams,
                        [warm, cruise, overload], work)
    finally:
        server.stop()
    if not workload.durable:
        check_static(result, workload, graph, streams, (cruise, overload), seed)

    reads = latencies_ms(cruise, streams["cruise"], updates=False)
    writes = latencies_ms(cruise, streams["cruise"], updates=True)
    result.metrics.update({
        "setup_s": statistics.median(setup_times),
        "p50_ms": best_window_percentile(reads, 50),
        "p90_ms": best_window_percentile(reads, 90),
        "peak_rps": best_window_rate([o.done for o in overload.outcomes if o.ok]),
        "rss_mb": rss,
    })
    result.attempted = cruise.sent + overload.sent
    result.failed = cruise.failed + overload.failed

    for phase in (cruise, overload):
        lines.append(phase_line(phase))
    lines.append(f"  setup spawns (s): {' '.join(f'{t:.3f}' for t in setup_times)}")
    tails = f"  read p90_ms {result.metrics['p90_ms']:.3f} (best window)"
    if supports(len(reads), 99):
        tails += f", p99_ms {percentile(reads, 99):.3f} (whole phase)"
    lines.append(f"{tails} over {len(reads)} reads")
    if writes:
        tail = f"  update_p90_ms {percentile(writes, 90):.3f}" if supports(len(writes), 90) else ""
        lines.append(f"  update_p50_ms {percentile(writes, 50):.3f}{tail} over {len(writes)} bursts")
    sent = result.attempted
    lines.append(f"  fail_frac {result.failed / sent if sent else 0.0:.4f} "
                 f"({result.failed} of {sent} sent)")
    cache = {k: v for k, v in served.items() if k.startswith("repro_cache_")}
    if cache:
        lines.append("  server cache " + " ".join(f"{k[12:]}={v:g}" for k, v in sorted(cache.items())))
    lines.append(f"  peak_rps {result.metrics['peak_rps']:.2f} (best window) over "
                 f"{overload.succeeded} overload completions")
    lines.append(f"  samples: {len(reads)} cruise reads (p90 needs {min_samples(90)})")
    return result


def traced(workload, seed: int, seconds: float, work: Path) -> RunResult:
    result = RunResult()
    graph = load_graph(workload)
    traced_s = seconds * TRACED_SHARE
    plain_s = seconds - traced_s
    streams = build_streams(workload, graph, seed, WARMUP_S, traced_s, 0.0)
    stamp = env_stamp(seed, signature(streams), traced=True)
    lines = result.lines
    lines.append(f"workload {workload.name}  seed {seed}  seconds {seconds:g}  (traced)")
    lines.append("  env " + json.dumps(stamp, sort_keys=True))

    plain_source = prepare_source(workload, graph, work / "plain")
    plain, _ = started(workload, plain_source, work, "plain")
    try:
        drive(plain, streams["warmup"], WARMUP_S, "warmup")
        baseline = drive(plain, streams["cruise"], plain_s, "cruise")
    finally:
        plain.stop()

    source = prepare_source(workload, graph, work / "traced")
    server, setup_s = started(workload, source, work, "traced", traced=True)
    try:
        warm = drive(server, streams["warmup"], WARMUP_S, "warmup")
        before = server.metrics()
        cruise = drive(server, streams["cruise"], traced_s, "cruise", tag="c")
        after = server.metrics()
        records = json.loads(server.dump_spans().read_text())
        if workload.durable:
            crash_drill(result, workload, graph, source, server, streams,
                        [warm, cruise], work)
        else:
            server.stop()
    finally:
        server.stop()

    stream = streams["cruise"]
    replay = Replayed(EngineReplay(graph), REPLAY_BUDGET)
    if not workload.durable:
        # churn's reads ran on a changing graph, so only read-only
        # workloads can be replayed byte for byte
        check_replay(result, replay, stream, cruise)
    computed = [q for r in records if r["name"] == "pool.call" and r["start"] >= cruise.start
                for q, _ in r["computed"]]
    stages = replay.stages(dict.fromkeys(computed))
    if not workload.durable:
        truth = gates.ground_truth(graph, WORK / "cache")
        record_accuracy(result, gates.accuracy(
            result.gate, [o.body for o in cruise.outcomes if o.ok], truth,
            ProbeSimConfig().eps_a))

    index = Records(records)
    trees = [request_tree(f"c{o.index}", o, stream[o.index], index, stages)
             for o in cruise.outcomes if o.ok]
    setup_records = [r for r in records if r["start"] <= server.spawned + setup_s]
    metrics = layer_metrics(cruise, stream, "c", index, trees, stages,
                            setup_records, before, after)
    reads = [o.latency * 1e3 for o in cruise.outcomes if o.ok and not stream[o.index].is_update]
    plain_reads = [o.latency * 1e3 for o in baseline.outcomes
                   if o.ok and not stream[o.index].is_update]
    metrics["p90_ms"] = best_window_percentile(reads, 90) if supports(len(reads), 90) else 0.0
    metrics["setup.context_ms"] = replay.engine.context_seconds * 1e3
    metrics["trace.overhead_ms"] = percentile(reads, 50) - percentile(plain_reads, 50)
    result.metrics.update(metrics)
    result.attempted = cruise.sent
    result.failed = cruise.failed

    out = WORK / "traces"
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"{workload.name}-seed{seed}.json"
    trace_path.write_text(json.dumps(chrome_trace(trees, stamp)))

    lines.append(phase_line(baseline).replace("cruise   ", "untraced "))
    lines.append(phase_line(cruise).replace("cruise   ", "traced   "))
    lines.append(f"  read p50: untraced {percentile(plain_reads, 50):.3f} ms, traced "
                 f"{percentile(reads, 50):.3f} ms (tracing overhead "
                 f"{metrics['trace.overhead_ms']:+.3f} ms)")
    lines.append(f"  self time per span over {len(trees)} requests "
                 f"(median request {percentile(reads, 50):.3f} ms; attributed "
                 f"{metrics['trace.attributed_frac']:.1%} at the median):")
    lines.append(f"    {'span':<16} {'layer':<18} {'median ms':>10} {'mean ms':>10} {'share':>7}")
    for row in layer_table(trees):
        lines.append(f"    {row['span']:<16} {row['layer']:<18} {row['median_ms']:>10.3f} "
                     f"{row['mean_ms']:>10.3f} {row['share']:>7.1%}")
    lines.append(f"  engine stages replayed for {len(stages)} of {len(set(computed))} computed "
                 f"queries (others use their mean); chrome trace: "
                 f"{trace_path.relative_to(ROOT)}")
    return result


class Replayed:
    """Engine replays memoised by (replica seed, query), at most ``budget`` of them."""

    def __init__(self, engine: EngineReplay, budget: int) -> None:
        self.engine = engine
        self.budget = budget
        self._runs: dict[tuple[int, int], tuple] = {}

    @property
    def spent(self) -> bool:
        return len(self._runs) >= self.budget

    def run(self, seed: int, query: int):
        if (seed, query) not in self._runs:
            self._runs[(seed, query)] = self.engine.run(query, seed)
        return self._runs[(seed, query)]

    def stages(self, queries) -> dict:
        """Stage timings per query: replayed under any replica seed, or
        replayed now while the budget lasts."""
        found = {}
        for query in queries:
            runs = [self._runs[(ENGINE_SEED + w, query)] for w in range(WORKERS)
                    if (ENGINE_SEED + w, query) in self._runs]
            if runs:
                found[query] = runs[0][1]
            elif not self.spent:
                found[query] = self.run(ENGINE_SEED, query)[1]
        return found


def check_replay(result: RunResult, replay: Replayed, stream, phase) -> None:
    """Served bytes must equal the in-process stage-by-stage replay."""
    for outcome in phase.outcomes:
        if not outcome.ok:
            continue
        if replay.spent:
            break
        request = stream[outcome.index]
        result.gate.count("bodies checked against the replay")
        if request.path == "/v1/topk":
            ok = any(outcome.body == replay.run(ENGINE_SEED + w, request.queries[0])[0]
                     for w in range(WORKERS))
        else:
            expected = b'{"results":[' + b",".join(
                replay.run(ENGINE_SEED + i % WORKERS, q)[0]
                for i, q in enumerate(request.queries)) + b"]}"
            ok = outcome.body == expected
        result.gate.require(ok, f"request {outcome.index}: served body differs from the replay")


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    workload = WORKLOADS[workload_name]
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            return traced(workload, seed, seconds, work)
        return untraced(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
