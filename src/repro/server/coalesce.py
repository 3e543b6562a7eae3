"""Micro-batching: coalesce concurrent single-query requests into batches.

The engines behind the service answer a *batch* of queries far cheaper
than the same queries one by one — a batch crosses the dispatch and IPC
layers once, and the service deduplicates repeated hot keys within a
batch.  Individual HTTP
requests arrive one query at a time, so the front door re-creates the
batch shape here: the first request for a bucket opens a collection
window (``window`` seconds); every concurrent request that lands inside
the window joins the batch; when the window closes (or ``max_batch``
distinct queries accumulate first) the whole bucket is dispatched as one
``single_source_many``/``topk_many`` call and each waiter receives its
own query's result.

Buckets are keyed by whatever the caller passes (the app uses
``(route, method, k)``), so results can never cross between
incompatible request shapes.  Duplicate queries within a bucket share
one slot — the dedup the service would do anyway happens before
dispatch, and ``dedup_saved`` counts it.

Correctness relies on a property of the engine, not of this module:
with ``ProbeSimConfig.query_seeded`` every answer is a pure function of
``(config, graph, query)``, so *any* grouping of requests into batches
yields bit-identical per-query results (asserted end-to-end by the
serving tests and the HTTP benchmark).  Without ``query_seeded`` the
engine's shared RNG stream makes answers depend on batch composition —
coalescing then still returns valid Theorem-2 estimates, just not
bit-equal to a different grouping of the same queries.

Batches additionally **adapt to load**: at most one dispatch per key is
in flight at a time, and a bucket whose window closes while its key's
previous batch is still executing keeps collecting until that dispatch
returns (then flushes immediately).  Idle traffic therefore pays at most
``window`` of added latency, while a saturated service sees batch sizes
grow to match its drain rate — which is exactly when deduplication and
amortized dispatch pay.  Under this backpressure a parked bucket may
exceed ``max_batch`` waiters; its *distinct-query* count stays bounded
by the admission lane capacity, since every waiter holds a lane slot.

A waiter cancelled while its bucket is still collecting (deadline
expiry, client disconnect) is dropped at flush time: its query leaves
the batch if no other waiter wants it, and the remaining batch-mates
are dispatched undisturbed.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from functools import partial
from typing import Awaitable, Callable, Hashable, Sequence

from repro.errors import ConfigurationError

__all__ = ["Coalescer", "CoalesceStats"]


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


class _Bucket:
    """One in-progress collection window for a single key."""

    __slots__ = ("waiters", "timer", "ready")

    def __init__(self) -> None:
        # query -> list of waiter futures (dict preserves arrival order,
        # which makes dispatched batches deterministic for a given arrival
        # sequence — handy when diffing dispatch logs in tests)
        self.waiters: dict[int, list[asyncio.Future]] = {}
        self.timer: asyncio.TimerHandle | None = None
        #: window closed (or bucket filled) while the key's previous batch
        #: was still dispatching: flush as soon as that dispatch returns
        self.ready = False


class Coalescer:
    """Collect concurrent ``submit`` calls into deduplicated batch dispatches.

    Parameters
    ----------
    dispatch:
        ``async (key, queries) -> sequence of results``, one result per
        query, in order.  The app points this at the service's batched
        entry points (through its executor).
    window:
        Collection window in seconds, measured from the first request of
        a bucket.  ``0`` still coalesces whatever lands in the same event
        loop tick.
    max_batch:
        Distinct-query count that triggers an early dispatch instead of
        waiting out the window.  A bucket parked behind an in-flight
        dispatch for its key may grow past this while it waits.
    """

    def __init__(
        self,
        dispatch: Callable[[Hashable, list[int]], Awaitable[Sequence[object]]],
        window: float = 0.002,
        max_batch: int = 64,
    ) -> None:
        if window < 0:
            raise ConfigurationError(f"window must be non-negative, got {window!r}")
        if max_batch <= 0:
            raise ConfigurationError(f"max_batch must be positive, got {max_batch!r}")
        self._dispatch = dispatch
        self.window = window
        self.max_batch = max_batch
        self._buckets: dict[Hashable, _Bucket] = {}  # guarded-by: event-loop
        self.stats = CoalesceStats()  # guarded-by: event-loop
        #: every dispatched (key, queries) pair, for tests and debugging.
        self.dispatch_log: list[tuple[Hashable, tuple[int, ...]]] = []  # guarded-by: event-loop
        self._flushes: set[asyncio.Task] = set()  # guarded-by: event-loop
        # at most one dispatch in flight per key: batches serialize in
        # submission order and grow under load instead of racing the engine
        self._in_flight: dict[Hashable, asyncio.Task] = {}  # guarded-by: event-loop

    async def submit(self, key: Hashable, query: int):
        """Join the bucket for ``key`` and await this query's result."""
        loop = asyncio.get_running_loop()
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = _Bucket()
            bucket.timer = loop.call_later(
                self.window, self._flush_from_timer, key
            )
        future: asyncio.Future = loop.create_future()
        bucket.waiters.setdefault(query, []).append(future)
        self.stats.requests += 1
        if len(bucket.waiters) >= self.max_batch:
            self._begin_flush(key)
        return await future

    async def flush(self) -> None:
        """Drain the coalescer: dispatch every open bucket, wait for every
        in-flight dispatch (shutdown path: no request may be left parked on
        a timer or behind another key's dispatch).

        In-flight work is awaited *first*: a bucket parked behind its
        key's running dispatch cannot be flushed until that dispatch's
        done-callback releases the key, so beginning flushes earlier only
        re-marks parked buckets ready and spins.  Once nothing is in
        flight (the done-callbacks of awaited tasks have run by the time
        ``gather`` returns), every remaining bucket flushes exactly once —
        each round either retires dispatches or starts them, so the drain
        makes progress every iteration instead of hot-looping.
        """
        while self._buckets or self._flushes:
            if self._flushes:
                await asyncio.gather(
                    *list(self._flushes), return_exceptions=True
                )
                continue
            for key in list(self._buckets):
                self._begin_flush(key)
        assert not self._in_flight, "coalescer drain left a dispatch in flight"

    def _flush_from_timer(self, key: Hashable) -> None:
        self._begin_flush(key)

    def _begin_flush(self, key: Hashable) -> None:
        """Detach the bucket and run its dispatch as a task.

        With a dispatch for the same key still in flight, the bucket is
        only *marked* ready and keeps collecting — it flushes the moment
        the running dispatch completes (adaptive batching under load).
        """
        bucket = self._buckets.get(key)
        if bucket is None:
            return  # already flushed (window fired after a full-bucket flush)
        if bucket.timer is not None:
            bucket.timer.cancel()
            bucket.timer = None
        if key in self._in_flight:
            bucket.ready = True
            return
        del self._buckets[key]
        task = asyncio.ensure_future(self._run_dispatch(key, bucket))
        self._in_flight[key] = task
        self._flushes.add(task)
        task.add_done_callback(partial(self._dispatch_done, key))

    def _dispatch_done(self, key: Hashable, task: asyncio.Task) -> None:
        self._flushes.discard(task)
        if self._in_flight.get(key) is task:
            del self._in_flight[key]
        parked = self._buckets.get(key)
        if parked is not None and (
            parked.ready or len(parked.waiters) >= self.max_batch
        ):
            self._begin_flush(key)

    async def _run_dispatch(self, key: Hashable, bucket: _Bucket) -> None:
        # Drop queries whose every waiter is already cancelled (deadline
        # expiry mid-coalesce): the expired request must not cost a slot in
        # the batch, and its batch-mates must not be disturbed.
        live: dict[int, list[asyncio.Future]] = {}
        for query, waiters in bucket.waiters.items():
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
        self.dispatch_log.append((key, tuple(queries)))
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
