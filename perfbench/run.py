#!/usr/bin/env python3
"""Serving benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload topk-hot --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Starts ``repro serve`` (native engine,
two workers, coalescing on) as a subprocess, replays the workload's
seeded requests over two keep-alive connections, checks the answers, and
prints a report whose last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``,
``--trace 1`` the ``per_layer`` ones (and writes a Chrome trace under
``perfbench/.work/traces``).  Exits 1 when a correctness check fails and
2 on bad arguments or an incomplete checkout.  Metric reference:
``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ProbeSim serving benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run unwinds through its finally blocks, which stop the
    # servers it started instead of leaving them orphaned
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import WORKLOADS, run

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    clock = time.monotonic()
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in outcome.lines:
        print(line)
    missing = [metric["name"] for metric in wanted if metric["name"] not in outcome.metrics]
    print("  metrics:")
    for metric in wanted:
        if metric["name"] in outcome.metrics:
            print(f"    {metric['name']:<24} {outcome.metrics[metric['name']]:>14.6g} "
                  f"{metric['unit']}")
    checked = ", ".join(f"{count} {what}" for what, count in sorted(outcome.gate.checked.items()))
    print(f"  correctness: {'ok' if outcome.gate.ok else 'FAILED'} ({checked})")
    for failure in outcome.gate.failures[:20]:
        print(f"    FAIL {failure}")
    for name in missing:
        print(f"    FAIL metric {name} was not measured")
    print(f"  run took {time.monotonic() - clock:.1f} s")
    correct = outcome.gate.ok and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric["name"]: {"value": float(outcome.metrics[metric["name"]]),
                             "unit": metric["unit"]}
            for metric in wanted if metric["name"] in outcome.metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
