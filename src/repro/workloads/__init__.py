"""Dynamic-workload subsystem: mixed query/update traffic at serving scale.

The paper's headline claim — index-free ProbeSim serves real-time queries on
*dynamic* graphs while index-based baselines pay maintenance — is a claim
about mixed traffic, not about queries or updates in isolation.  This
package reproduces it end to end:

:mod:`~repro.workloads.generator`
    Reproducible interleaved query/update traces — read/write ratio,
    Zipf-skewed query keys, insert/delete mix, batch arrival sizes.
:mod:`~repro.workloads.driver`
    Replays one trace per method on a
    :class:`~repro.parallel.pool.ParallelSimRankService` (process, thread or
    sequential executor), and reports latency percentiles, sustained QPS,
    maintenance cost, and read staleness.
:mod:`~repro.workloads.stats`
    The latency histogram those reports are built from.

Entry points: ``repro workload`` on the CLI and
``benchmarks/bench_dynamic_workload.py`` in the harness.
"""

from repro.workloads.driver import MethodReport, WorkloadResult, run_workload
from repro.workloads.generator import (
    TraceBatch,
    WorkloadConfig,
    WorkloadTrace,
    generate_workload,
)
from repro.workloads.stats import LatencyHistogram

__all__ = [
    "LatencyHistogram",
    "MethodReport",
    "TraceBatch",
    "WorkloadConfig",
    "WorkloadResult",
    "WorkloadTrace",
    "generate_workload",
    "run_workload",
]
