"""The asyncio HTTP front door for SimRank serving.

This package turns the serving layer
(:class:`~repro.parallel.pool.ParallelSimRankService`, or its one-worker
in-process form :class:`~repro.api.service.SimRankService`) into a network
service — the "heavy traffic from millions of users" shape the paper's
index-free argument is about.  It is pure standard library (asyncio + a
minimal HTTP/1.1 layer in :mod:`repro.server.http`); no web framework is
required.

- :mod:`repro.server.app` — routes, request lifecycle, lifespan
  (:class:`~repro.server.app.SimRankHTTPApp`);
- :mod:`repro.server.coalesce` — micro-batching of concurrent
  single-query requests into deduplicated batch dispatches;
- :mod:`repro.server.admission` — bounded per-lane admission, 503 load
  shedding with ``Retry-After``, per-request deadlines;
- :mod:`repro.server.loadgen` — the open-loop load generator that
  replays workload traces against a running server.

Start one from the CLI (``repro serve``) or programmatically::

    app = SimRankHTTPApp(service, ServerConfig(port=0))
    await app.start()
    ...
    await app.aclose()
"""

from repro.server.admission import AdmissionController, Deadline, LaneStats
from repro.server.app import ServerConfig, SimRankHTTPApp, serialize_result, serialize_topk
from repro.server.coalesce import Coalescer, CoalesceStats
from repro.server.loadgen import LoadReport, requests_from_trace, run_load

__all__ = [
    "AdmissionController",
    "Coalescer",
    "CoalesceStats",
    "Deadline",
    "LaneStats",
    "LoadReport",
    "ServerConfig",
    "SimRankHTTPApp",
    "requests_from_trace",
    "run_load",
    "serialize_result",
    "serialize_topk",
]
