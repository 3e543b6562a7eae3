"""Micro-batching: coalesce concurrent single-query requests into batches.

The engines behind the service answer a *batch* of queries far cheaper
than the same queries one by one — a batch crosses the dispatch and IPC
layers once, and the service deduplicates repeated hot keys within a
batch.  Individual HTTP requests arrive one query at a time, so the front
door re-creates the batch shape here, **without a timer**:

- A request for an idle key opens a bucket that dispatches on the next
  event-loop turn.  Requests that land in the same tick join it and share
  the batch; a lone request waits one loop iteration, not a collection
  window.  A bucket that reaches ``max_batch`` distinct queries dispatches
  at once.
- At most one dispatch per key is in flight.  Requests that arrive while
  it runs park in the key's next bucket, which flushes the moment that
  dispatch returns.  Batches therefore grow with backpressure: an idle
  service answers singles, a saturated one batches to match its drain
  rate, which is exactly when deduplication and amortized dispatch pay.
  A parked bucket may exceed ``max_batch`` waiters; its distinct-query
  count stays bounded by the admission lane capacity, since every waiter
  holds a lane slot.

Each bucket is dispatched as one ``single_source_many``/``topk_many`` call
and each waiter receives its own query's result.  Buckets are keyed by
whatever the caller passes (the app uses ``(route, method, k)``), so
results can never cross between incompatible request shapes.  Duplicate
queries within a bucket share one slot — the dedup the service would do
anyway happens before dispatch, and ``dedup_saved`` counts it.

Correctness relies on a property of the engines, not of this module.
Given an integer seed, every randomized estimator draws each query's
walks from a stream fixed by ``(seed, query)``, so its answer is a pure
function of (replica seed, graph, query) and *any* grouping of requests
into batches yields bit-identical per-query results from one replica
(asserted end-to-end by the serving tests and the HTTP benchmark).

A waiter cancelled while its bucket is still open (deadline expiry,
client disconnect) is dropped at flush time: its query leaves the batch
if no other waiter wants it, and the remaining batch-mates are dispatched
undisturbed.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from functools import partial
from typing import Awaitable, Callable, Hashable, Sequence

from repro.errors import ConfigurationError

__all__ = ["Coalescer", "CoalesceStats"]

#: one open bucket: query -> the futures of the requests waiting on it
_Bucket = dict[int, list[asyncio.Future]]


@dataclass
class CoalesceStats:
    """Counters of one :class:`Coalescer` (exposed through ``/metrics``)."""

    requests: int = 0
    batches: int = 0
    batched_queries: int = 0
    dedup_saved: int = 0
    max_batch: int = 0
    dropped_cancelled: int = 0

    def metrics(self) -> dict[str, float]:
        """Flat counters for the metrics exposition."""
        return {
            "coalesce_requests": self.requests,
            "coalesce_batches": self.batches,
            "coalesce_batched_queries": self.batched_queries,
            "coalesce_dedup_saved": self.dedup_saved,
            "coalesce_max_batch": self.max_batch,
            "coalesce_dropped_cancelled": self.dropped_cancelled,
        }


class Coalescer:
    """Collect concurrent ``submit`` calls into deduplicated batch dispatches.

    Parameters
    ----------
    dispatch:
        ``async (key, queries) -> sequence of results``, one result per
        query, in order.  The app points this at the service's batched
        entry points (through its executor).
    max_batch:
        Distinct-query count that dispatches a bucket at once instead of
        on the next loop turn.  A bucket parked behind an in-flight
        dispatch for its key may grow past this while it waits.
    """

    def __init__(
        self,
        dispatch: Callable[[Hashable, list[int]], Awaitable[Sequence[object]]],
        max_batch: int = 64,
    ) -> None:
        if max_batch <= 0:
            raise ConfigurationError(f"max_batch must be positive, got {max_batch!r}")
        self._dispatch = dispatch
        self.max_batch = max_batch
        # dicts keep arrival order, so a given arrival sequence always
        # dispatches the same batches
        self._buckets: dict[Hashable, _Bucket] = {}  # guarded-by: event-loop
        self.stats = CoalesceStats()  # guarded-by: event-loop
        # at most one dispatch in flight per key: batches serialize in
        # submission order and grow under load instead of racing the engine
        self._in_flight: dict[Hashable, asyncio.Task] = {}  # guarded-by: event-loop

    async def submit(self, key: Hashable, query: int):
        """Join the bucket for ``key`` and await this query's result."""
        loop = asyncio.get_running_loop()
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = {}
            if key not in self._in_flight:
                # idle key: dispatch on the next turn, after every request
                # that landed in this tick has joined
                loop.call_soon(self._begin_flush, key)
        future: asyncio.Future = loop.create_future()
        bucket.setdefault(query, []).append(future)
        self.stats.requests += 1
        if len(bucket) >= self.max_batch:
            self._begin_flush(key)
        return await future

    async def flush(self) -> None:
        """Drain the coalescer: dispatch every open bucket, wait for every
        in-flight dispatch (shutdown path: no request may be left parked
        behind a dispatch or a pending loop callback).

        In-flight work is awaited *first*: a bucket parked behind its
        key's running dispatch cannot be flushed until that dispatch's
        done-callback releases the key.  Once nothing is in flight (the
        done-callbacks of awaited tasks have run by the time ``gather``
        returns), every remaining bucket flushes exactly once — each round
        either retires dispatches or starts them, so the drain makes
        progress every iteration instead of hot-looping.
        """
        while self._buckets or self._in_flight:
            if self._in_flight:
                await asyncio.gather(
                    *list(self._in_flight.values()), return_exceptions=True
                )
                continue
            for key in list(self._buckets):
                self._begin_flush(key)

    def _begin_flush(self, key: Hashable) -> None:
        """Detach the bucket and run its dispatch as a task.

        With a dispatch for the same key still in flight the bucket stays
        parked and keeps collecting; it flushes the moment the running
        dispatch completes (adaptive batching under load).
        """
        bucket = self._buckets.get(key)
        if bucket is None or key in self._in_flight:
            return  # already flushed, or parked behind the key's dispatch
        del self._buckets[key]
        task = asyncio.ensure_future(self._run_dispatch(key, bucket))
        self._in_flight[key] = task
        task.add_done_callback(partial(self._dispatch_done, key))

    def _dispatch_done(self, key: Hashable, _task: asyncio.Task) -> None:
        del self._in_flight[key]
        self._begin_flush(key)

    async def _run_dispatch(self, key: Hashable, bucket: _Bucket) -> None:
        # Drop queries whose every waiter is already cancelled (deadline
        # expiry mid-coalesce): the expired request must not cost a slot in
        # the batch, and its batch-mates must not be disturbed.
        live: dict[int, list[asyncio.Future]] = {}
        for query, waiters in bucket.items():
            alive = [f for f in waiters if not f.cancelled()]
            self.stats.dropped_cancelled += len(waiters) - len(alive)
            if alive:
                live[query] = alive
        if not live:
            return
        queries = list(live)
        self.stats.batches += 1
        self.stats.batched_queries += sum(len(ws) for ws in live.values())
        self.stats.dedup_saved += sum(len(ws) - 1 for ws in live.values())
        self.stats.max_batch = max(self.stats.max_batch, len(queries))
        try:
            results = await self._dispatch(key, queries)
        except asyncio.CancelledError:
            for waiters in live.values():
                for future in waiters:
                    if not future.done():
                        future.cancel()
            raise
        except Exception as exc:
            for waiters in live.values():
                for future in waiters:
                    if not future.done():
                        future.set_exception(exc)
            return
        if len(results) != len(queries):
            mismatch = ConfigurationError(
                f"coalesce dispatch returned {len(results)} results "
                f"for {len(queries)} queries"
            )
            for waiters in live.values():
                for future in waiters:
                    if not future.done():
                        future.set_exception(mismatch)
            return
        for query, result in zip(queries, results):
            for future in live[query]:
                if not future.done():
                    future.set_result(result)
