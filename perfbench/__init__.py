"""Serving benchmark for the ProbeSim reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
starts ``repro serve`` as a subprocess, replays one seeded workload over
real sockets, checks the answers, and prints the metrics ``BENCHMARK.json``
names.  ``perfbench/METRICS.md`` describes every metric.
"""
