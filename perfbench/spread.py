#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload churn --seeds 1-10 [--seconds 25] [--trace 0]

Runs ``perfbench/run.py`` once per seed, one after another, and prints for
every metric its median and the distance between the first and third
quartile as a share of the median (``statistics.quantiles(values, n=4)``),
next to a third of the metric's bound from ``BENCHMARK.json``, the level a
steady benchmark should stay under.  Raw results go to
``perfbench/.work/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import relative_spread  # noqa: E402


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-5"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode != 0:
            print(done.stdout[-3000:], done.stderr[-3000:], sep="\n")
            print(f"seed {seed}: exit {done.returncode}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {values}", flush=True)
    out = ROOT / "perfbench" / ".work" / f"spread-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))
    print(f"{'metric':<24} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
        median = statistics.median(values)
        spread = relative_spread(values) if len(values) > 1 and median else float("nan")
        bound = bounds.get(name)
        third = f"{bound / 3:.3f}" if bound else "-"
        print(f"{name:<24} {median:>12.5g} {spread:>8.3f} {third:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
