"""Unit tests for the micro-batching coalescer (pure asyncio, no sockets)."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.server.coalesce import Coalescer


class Recorder:
    """A dispatch target that records batches and answers ``query * 10``.

    ``gate`` (an ``asyncio.Event``) holds every dispatch until the test
    sets it: requests submitted meanwhile park behind the in-flight batch,
    which is how these tests keep a bucket open without a wall-clock wait.
    """

    def __init__(self, delay: float = 0.0, fail: Exception | None = None,
                 short: bool = False, gate: asyncio.Event | None = None):
        self.batches: list[tuple[object, tuple[int, ...]]] = []
        self.delay = delay
        self.fail = fail
        self.short = short
        self.gate = gate

    async def __call__(self, key, queries):
        self.batches.append((key, tuple(queries)))
        if self.gate is not None:
            await self.gate.wait()
        if self.delay:
            await asyncio.sleep(self.delay)
        if self.fail is not None:
            raise self.fail
        results = [query * 10 for query in queries]
        return results[:-1] if self.short else results


async def turns_until(predicate, limit: int = 10) -> None:
    """Yield to the event loop until ``predicate()`` holds; fails after
    ``limit`` turns (no wall-clock wait anywhere)."""
    for _ in range(limit + 1):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError(f"condition not reached within {limit} loop turns")


async def park_behind_blocker(coalescer, recorder, key="key"):
    """Dispatch query 0 for ``key`` and hold it on the recorder's gate, so
    the key's next bucket parks; returns the blocker's waiter."""
    blocker = asyncio.ensure_future(coalescer.submit(key, 0))
    await turns_until(lambda: recorder.batches)
    assert key in coalescer._in_flight
    return blocker


class TestCoalescing:
    def test_single_submit_dispatches_alone(self):
        async def main():
            recorder = Recorder()
            coalescer = Coalescer(recorder)
            result = await coalescer.submit("key", 7)
            assert result == 70
            assert recorder.batches == [("key", (7,))]
            assert coalescer.stats.requests == 1
            assert coalescer.stats.batches == 1

        asyncio.run(main())

    def test_lone_submit_dispatches_within_a_few_loop_turns(self):
        """An idle key dispatches on the next loop turn: no collection
        window, so no wall-clock wait before the engine sees the query."""

        async def main():
            recorder = Recorder()
            coalescer = Coalescer(recorder)
            waiter = asyncio.ensure_future(coalescer.submit("key", 7))
            await turns_until(lambda: recorder.batches, limit=5)
            assert recorder.batches == [("key", (7,))]
            assert await waiter == 70

        asyncio.run(main())

    def test_same_tick_arrivals_form_one_batch(self):
        async def main():
            recorder = Recorder()
            coalescer = Coalescer(recorder)
            waiters = [
                asyncio.ensure_future(coalescer.submit("key", q))
                for q in (1, 2, 3)
            ]
            await turns_until(lambda: recorder.batches)
            # a request arriving after the dispatch began gets its own batch
            late = asyncio.ensure_future(coalescer.submit("key", 4))
            assert await asyncio.gather(*waiters, late) == [10, 20, 30, 40]
            assert recorder.batches == [("key", (1, 2, 3)), ("key", (4,))]
            assert coalescer.stats.max_batch == 3

        asyncio.run(main())

    def test_concurrent_submits_share_one_batch(self):
        async def main():
            recorder = Recorder()
            coalescer = Coalescer(recorder)
            results = await asyncio.gather(
                coalescer.submit("key", 1),
                coalescer.submit("key", 2),
                coalescer.submit("key", 3),
            )
            assert results == [10, 20, 30]
            assert recorder.batches == [("key", (1, 2, 3))]
            assert coalescer.stats.max_batch == 3

        asyncio.run(main())

    def test_duplicate_queries_share_one_slot(self):
        async def main():
            recorder = Recorder()
            coalescer = Coalescer(recorder)
            results = await asyncio.gather(
                coalescer.submit("key", 5),
                coalescer.submit("key", 5),
                coalescer.submit("key", 6),
            )
            assert results == [50, 50, 60]
            # the duplicate never cost a batch slot
            assert recorder.batches == [("key", (5, 6))]
            assert coalescer.stats.dedup_saved == 1
            assert coalescer.stats.batched_queries == 3

        asyncio.run(main())

    def test_distinct_keys_never_share_a_batch(self):
        async def main():
            recorder = Recorder()
            coalescer = Coalescer(recorder)
            await asyncio.gather(
                coalescer.submit(("topk", None, 5), 1),
                coalescer.submit(("topk", None, 10), 1),
            )
            assert sorted(key for key, _ in recorder.batches) == [
                ("topk", None, 5), ("topk", None, 10),
            ]

        asyncio.run(main())

    def test_backpressure_grows_the_next_batch(self):
        async def main():
            recorder = Recorder(delay=0.1)
            coalescer = Coalescer(recorder)
            first = asyncio.ensure_future(coalescer.submit("key", 1))
            await asyncio.sleep(0.03)  # batch (1,) is now dispatching
            late = [
                asyncio.ensure_future(coalescer.submit("key", q))
                for q in (2, 3, 4)
            ]
            # they park behind the running dispatch, so they coalesce into
            # ONE follow-up batch instead of three
            assert await first == 10
            assert await asyncio.gather(*late) == [20, 30, 40]
            assert recorder.batches == [("key", (1,)), ("key", (2, 3, 4))]

        asyncio.run(main())

    def test_at_most_one_dispatch_in_flight_per_key(self):
        async def main():
            recorder = Recorder(delay=0.05)
            coalescer = Coalescer(recorder)
            waiters = []
            for query in range(4):
                waiters.append(
                    asyncio.ensure_future(coalescer.submit("key", query))
                )
                await asyncio.sleep(0.01)
            assert await asyncio.gather(*waiters) == [0, 10, 20, 30]
            # batches serialized: the 0.01s-spaced arrivals during each
            # 0.05s dispatch merged instead of overlapping it
            assert len(recorder.batches) < 4
            flat = [q for _, qs in recorder.batches for q in qs]
            assert flat == [0, 1, 2, 3]

        asyncio.run(main())

    def test_full_bucket_flushes_early(self):
        async def main():
            recorder = Recorder()
            coalescer = Coalescer(recorder, max_batch=2)
            # three arrivals in one tick: without the max_batch flush they
            # would share one batch on the next loop turn
            results = await asyncio.gather(
                coalescer.submit("key", 1),
                coalescer.submit("key", 2),
                coalescer.submit("key", 3),
            )
            assert results == [10, 20, 30]
            assert recorder.batches == [("key", (1, 2)), ("key", (3,))]

        asyncio.run(main())


class TestCancellation:
    def test_cancelled_waiter_is_dropped_from_the_batch(self):
        async def main():
            recorder = Recorder(gate=asyncio.Event())
            coalescer = Coalescer(recorder)
            blocker = await park_behind_blocker(coalescer, recorder)
            doomed = asyncio.ensure_future(coalescer.submit("key", 1))
            survivor = asyncio.ensure_future(coalescer.submit("key", 2))
            await asyncio.sleep(0)  # let both join the parked bucket
            doomed.cancel()
            recorder.gate.set()
            assert await survivor == 20
            assert await blocker == 0
            # the cancelled query never reached the service...
            assert recorder.batches == [("key", (0,)), ("key", (2,))]
            assert coalescer.stats.dropped_cancelled == 1
            with pytest.raises(asyncio.CancelledError):
                await doomed

        asyncio.run(main())

    def test_fully_cancelled_bucket_never_dispatches(self):
        async def main():
            recorder = Recorder(gate=asyncio.Event())
            coalescer = Coalescer(recorder)
            blocker = await park_behind_blocker(coalescer, recorder)
            waiter = asyncio.ensure_future(coalescer.submit("key", 1))
            await asyncio.sleep(0)
            waiter.cancel()
            recorder.gate.set()
            assert await blocker == 0
            await coalescer.flush()
            # only the blocker's batch ever reached the dispatch target
            assert recorder.batches == [("key", (0,))]
            assert coalescer.stats.batches == 1
            assert not coalescer._buckets

        asyncio.run(main())


class TestFailures:
    def test_dispatch_exception_reaches_every_waiter(self):
        async def main():
            recorder = Recorder(fail=ValueError("engine exploded"))
            coalescer = Coalescer(recorder)
            results = await asyncio.gather(
                coalescer.submit("key", 1),
                coalescer.submit("key", 2),
                return_exceptions=True,
            )
            assert all(isinstance(r, ValueError) for r in results)

        asyncio.run(main())

    def test_result_count_mismatch_is_surfaced(self):
        async def main():
            recorder = Recorder(short=True)
            coalescer = Coalescer(recorder)
            results = await asyncio.gather(
                coalescer.submit("key", 1),
                coalescer.submit("key", 2),
                return_exceptions=True,
            )
            assert all(isinstance(r, ConfigurationError) for r in results)
            assert "2 queries" in str(results[0])

        asyncio.run(main())


class TestFlush:
    def test_flush_drains_parked_buckets(self):
        async def main():
            recorder = Recorder(gate=asyncio.Event())
            coalescer = Coalescer(recorder)
            blocker = await park_behind_blocker(coalescer, recorder)
            waiter = asyncio.ensure_future(coalescer.submit("key", 4))
            await asyncio.sleep(0)  # bucket (4,) parked behind the blocker
            drain = asyncio.ensure_future(coalescer.flush())  # shutdown path
            await asyncio.sleep(0)
            assert not drain.done()  # the blocker is still dispatching
            recorder.gate.set()
            await asyncio.wait_for(drain, timeout=5.0)
            # the drain answered every waiter before returning
            assert waiter.done() and blocker.done()
            assert await waiter == 40
            assert recorder.batches == [("key", (0,)), ("key", (4,))]
            assert not coalescer._buckets and not coalescer._in_flight

        asyncio.run(main())

    def test_flush_drains_bucket_parked_behind_in_flight_dispatch(self):
        """Regression: with every open bucket parked behind its key's
        running dispatch, flush() must await the dispatch and then flush
        the parked bucket exactly once — not spin re-marking it ready."""

        async def main():
            recorder = Recorder(delay=0.05)
            coalescer = Coalescer(recorder)
            first = asyncio.ensure_future(coalescer.submit("key", 1))
            await asyncio.sleep(0.01)  # (1,) is now dispatching
            parked = asyncio.ensure_future(coalescer.submit("key", 2))
            await asyncio.sleep(0)  # bucket (2,) parked behind the dispatch
            assert "key" in coalescer._in_flight
            assert "key" in coalescer._buckets
            await asyncio.wait_for(coalescer.flush(), timeout=5.0)
            # every waiter answered; the parked bucket flushed exactly once
            assert await first == 10
            assert await parked == 20
            assert recorder.batches == [("key", (1,)), ("key", (2,))]
            assert not coalescer._buckets
            assert not coalescer._in_flight

        asyncio.run(main())

    def test_flush_drains_parked_buckets_across_keys(self):
        async def main():
            recorder = Recorder(delay=0.03)
            coalescer = Coalescer(recorder)
            waiters = [asyncio.ensure_future(coalescer.submit(k, q))
                       for q, k in enumerate(("a", "b"))]
            await asyncio.sleep(0.01)  # both keys dispatching
            waiters += [asyncio.ensure_future(coalescer.submit(k, q + 10))
                        for q, k in enumerate(("a", "b"))]
            await asyncio.sleep(0)  # both follow-ups parked
            await asyncio.wait_for(coalescer.flush(), timeout=5.0)
            assert await asyncio.gather(*waiters) == [0, 10, 100, 110]
            assert not coalescer._buckets and not coalescer._in_flight

        asyncio.run(main())


class TestValidation:
    def test_non_positive_max_batch_is_rejected(self):
        with pytest.raises(ConfigurationError, match="max_batch"):
            Coalescer(Recorder(), max_batch=0)
