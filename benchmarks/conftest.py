"""Shared infrastructure for the benchmark harness.

Every paper table/figure has one ``bench_*.py`` file.  Scale is controlled by
the ``REPRO_SCALE`` environment variable:

- ``tiny``  (default): minutes for the whole harness; graph sizes of a few
  hundred nodes.  The *shape* of every comparison (who wins, by roughly what
  factor) already shows at this scale.
- ``small``: the sizes used while developing this reproduction (~1k-12k
  nodes); tens of minutes.
- ``paper``: the largest stand-ins (up to 100k nodes).  Hours; closest to the
  paper's relative numbers.

Each bench prints the rows/series of its paper artifact via
``repro.eval.reporting.format_table`` and also appends them to
``benchmarks/results/<scale>/<bench>.txt`` so EXPERIMENTS.md can cite a
concrete run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.api import create
from repro.datasets import load_dataset
from repro.eval.ground_truth import GroundTruth, compute_ground_truth
from repro.eval.queries import sample_query_nodes
from repro.eval.reporting import format_table
from repro.graph import CSRGraph

SCALE = os.environ.get("REPRO_SCALE", "tiny")
if SCALE not in ("tiny", "small", "paper"):
    raise RuntimeError(f"REPRO_SCALE must be tiny|small|paper, got {SCALE!r}")

#: REPRO_SMOKE=1 further shrinks the workload *within* a scale: the CI
#: bench-smoke job runs every bench file in seconds purely to prove the
#: scripts still execute end to end — numbers from a smoke run are not
#: comparable to anything.
SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")

#: number of query nodes averaged per experiment (paper: 100 small / 20 large)
NUM_QUERIES = {"tiny": 4, "small": 10, "paper": 20}[SCALE]
if SMOKE:
    NUM_QUERIES = 2
#: top-k depth (paper: 50)
TOP_K = {"tiny": 10, "small": 25, "paper": 50}[SCALE]
#: TSF index parameters (paper: Rg=300, Rq=40)
TSF_RG = {"tiny": 60, "small": 120, "paper": 300}[SCALE]
TSF_RQ = {"tiny": 6, "small": 12, "paper": 40}[SCALE]
#: ProbeSim eps_a series for the accuracy/time tradeoff (paper: 0.0125..0.1;
#: pure Python needs looser settings at the larger scales to stay tractable)
EPS_SERIES = {
    "tiny": [0.05, 0.1, 0.2],
    "small": [0.1, 0.15, 0.2],
    "paper": [0.1, 0.2],
}[SCALE]
#: fixed eps_a for top-k and large-graph experiments (paper: 0.1)
EPS_TOPK = 0.1

RESULTS_DIR = Path(__file__).parent / "results" / SCALE

_dataset_cache: dict[str, object] = {}
_truth_cache: dict[str, GroundTruth] = {}


def get_dataset(name: str):
    """Cached stand-in dataset at the harness scale."""
    if name not in _dataset_cache:
        _dataset_cache[name] = load_dataset(name, scale=SCALE)
    return _dataset_cache[name]


def get_csr(name: str) -> CSRGraph:
    key = f"{name}#csr"
    if key not in _dataset_cache:
        _dataset_cache[key] = CSRGraph.from_digraph(get_dataset(name))
    return _dataset_cache[key]


def get_ground_truth(name: str) -> GroundTruth:
    """Exact ground truth (Power Method); only valid for graphs under the
    dense cap — the small datasets at every scale, large ones at tiny."""
    if name not in _truth_cache:
        iterations = 55  # the paper's ground-truth recipe
        _truth_cache[name] = compute_ground_truth(
            get_dataset(name), c=0.6, iterations=iterations
        )
    return _truth_cache[name]


def get_queries(name: str, count: int | None = None) -> list[int]:
    return sample_query_nodes(get_dataset(name), count or NUM_QUERIES, seed=2017)


# --------------------------------------------------------------------- #
# method factories (fixed seeds: benches are reproducible)
# --------------------------------------------------------------------- #


#: registry names of the TopSim variants, keyed the way the paper labels them.
TOPSIM_VARIANTS = {
    "full": "topsim",
    "truncated": "trun-topsim",
    "prioritized": "prio-topsim",
}


def make_probesim(name: str, eps_a: float = EPS_TOPK, **overrides):
    """ProbeSim through the method registry at the harness defaults."""
    defaults = dict(c=0.6, eps_a=eps_a, delta=0.1, seed=42, strategy="hybrid")
    defaults.update(overrides)
    return create("probesim", get_csr(name), **defaults)


def make_topsim(name: str, variant: str = "full"):
    """One TopSim variant through the method registry (paper parameters)."""
    return create(
        TOPSIM_VARIANTS[variant],
        get_csr(name),
        c=0.6,
        depth=3,
        degree_threshold=100,
        eta=0.001,
        priority_width=100,
    )


def make_tsf(name: str):
    """TSF through the method registry at the harness scale parameters."""
    return create("tsf", get_csr(name), c=0.6, rg=TSF_RG, rq=TSF_RQ, depth=8, seed=42)


def make_mc(name: str):
    """Monte Carlo through the method registry."""
    return create("mc", get_csr(name), c=0.6, seed=42)


#: the five methods of Figures 4-10, in the paper's legend order.
METHOD_ORDER = ["probesim", "tsf", "topsim-sm", "trun-topsim-sm", "prio-topsim-sm"]


def standard_methods(name: str) -> dict[str, object]:
    """Instantiate the paper's five compared methods for a dataset."""
    return {
        "probesim": make_probesim(name),
        "tsf": make_tsf(name),
        "topsim-sm": make_topsim(name, "full"),
        "trun-topsim-sm": make_topsim(name, "truncated"),
        "prio-topsim-sm": make_topsim(name, "prioritized"),
    }


def pin_cores(budget: int) -> int:
    """Pin this process to ``budget`` of its allowed cores; returns how many
    it runs on (all of them where the platform cannot pin).

    Standalone perf scripts record the result as ``cores``, so a baseline
    gates on any box with at least that many cores.
    """
    if not hasattr(os, "sched_setaffinity"):
        return os.cpu_count() or 1
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, allowed[:budget])
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------- #
# result recording
# --------------------------------------------------------------------- #


def emit_text(bench_name: str, text: str) -> None:
    """Print and persist one experiment artifact (table or chart)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / f"{bench_name}.txt"
    with open(out, "a", encoding="utf-8") as handle:
        handle.write(text + "\n\n")
    print("\n" + text)


def emit_table(bench_name: str, rows: list[dict], title: str) -> str:
    """Render, print, and persist one experiment table."""
    table = format_table(rows, title=title)
    emit_text(bench_name, table)
    return table


def emit_chart(bench_name: str, rows: list[dict], x_key: str, y_key: str,
               title: str, **kwargs) -> None:
    """Render the rows as the paper-style ASCII scatter plot."""
    from repro.eval.charts import tradeoff_chart

    chart = tradeoff_chart(rows, x_key, y_key, title=title, **kwargs)
    emit_text(bench_name, chart)


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_dir():
    """Truncate previous result files once per session."""
    if RESULTS_DIR.exists():
        for path in RESULTS_DIR.glob("*.txt"):
            path.unlink()
    yield
