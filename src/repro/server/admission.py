"""Admission control for the HTTP tier: bounded lanes, shedding, deadlines.

The serving stack behind the front door is a fixed pool of estimator
replicas; queueing more work than the pool can drain only converts
overload into unbounded latency.  This module makes overload explicit
instead:

- every request class (``single_source``, ``topk``, ``batch``,
  ``update``) gets a **lane** with a bounded in-flight count — the bound
  covers both queued and executing requests, so the lane *is* the queue;
- a request arriving at a full lane is **shed immediately** — the caller
  maps :class:`repro.errors.AdmissionError` to ``503`` with a
  ``Retry-After`` header, and crucially the shed happens before the
  request touches the worker pool or a coalescing bucket (load shedding
  must be the cheap path);
- every admitted request carries a :class:`Deadline`; the app wraps
  dispatch in ``asyncio.timeout(deadline.remaining())`` so an
  expired request is cancelled without disturbing batch-mates.

Lanes are plain counters, not ``asyncio.Queue`` objects: admission
decisions are synchronous (admit or shed, never wait), which keeps the
shed path allocation-free and makes the "503 before the pool is touched"
property trivially testable.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass

from repro.errors import AdmissionError, ConfigurationError

__all__ = [
    "AdmissionController",
    "AdmissionPermit",
    "Deadline",
    "LANES",
    "LaneStats",
]


def _pick_clock():
    """The event-loop clock inside a running loop, ``time.monotonic`` outside."""
    try:
        return asyncio.get_running_loop().time
    except RuntimeError:
        return time.monotonic

#: request classes with independent bounds (reads never starve behind
#: updates and vice versa — the HTAP-style isolation the ROADMAP aims at).
LANES = ("single_source", "topk", "batch", "update")


class Deadline:
    """A per-request time budget pinned to one monotonic clock.

    The clock is chosen **once at construction** — the event-loop clock
    when a loop is running, ``time.monotonic`` otherwise — and every
    ``remaining()`` call reads that same clock.  Choosing per call would
    compare timestamps from two different epochs for a ``Deadline``
    built before the loop starts (the CLI/serve startup path) and make it
    expire never or immediately, depending on which clock runs ahead.

    ``None`` seconds means "no deadline" (``remaining()`` is ``None``,
    which ``asyncio.timeout`` treats as wait-forever).
    """

    def __init__(self, seconds: float | None) -> None:
        if seconds is not None and seconds <= 0:
            raise ConfigurationError(f"deadline must be positive, got {seconds!r}")
        self.seconds = seconds
        self._clock = _pick_clock()
        self._expires = None if seconds is None else self._clock() + seconds

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0), or ``None`` for no deadline."""
        if self._expires is None:
            return None
        return max(0.0, self._expires - self._clock())

    @property
    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0


@dataclass
class LaneStats:
    """Counters of one admission lane (exposed through ``/metrics``).

    Every admitted request ends in exactly one of ``completed`` or
    ``timeouts``, so ``admitted == completed + timeouts + in_flight``
    holds at every instant — the invariant dashboards difference against.
    """

    capacity: int
    in_flight: int = 0
    peak_in_flight: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    timeouts: int = 0


class AdmissionPermit:
    """One admitted request's hold on a lane, yielded by ``admit``.

    Call :meth:`record_timeout` before the ``with`` block exits to settle
    the request as expired; otherwise it settles as completed.  Exactly
    one of the two counters moves per admission.
    """

    __slots__ = ("lane", "timed_out")

    def __init__(self, lane: LaneStats) -> None:
        self.lane = lane
        self.timed_out = False

    def record_timeout(self) -> None:
        """Mark this request deadline-expired (idempotent)."""
        self.timed_out = True


class AdmissionController:
    """Bounded per-lane admission with immediate load shedding.

    Parameters
    ----------
    capacity:
        In-flight bound per lane — one int for every lane, or a
        ``{lane: int}`` dict (unnamed lanes fall back to the default 64).
    retry_after:
        Seconds advertised in ``Retry-After`` when shedding.
    """

    DEFAULT_CAPACITY = 64

    def __init__(
        self,
        capacity: int | dict[str, int] | None = None,
        retry_after: float = 1.0,
    ) -> None:
        if retry_after <= 0:
            raise ConfigurationError(
                f"retry_after must be positive, got {retry_after!r}"
            )
        if capacity is None:
            capacity = self.DEFAULT_CAPACITY
        if isinstance(capacity, int):
            limits = {lane: capacity for lane in LANES}
        else:
            unknown = sorted(set(capacity) - set(LANES))
            if unknown:
                raise ConfigurationError(
                    f"unknown admission lanes {unknown}; lanes are {list(LANES)}"
                )
            limits = {
                lane: capacity.get(lane, self.DEFAULT_CAPACITY) for lane in LANES
            }
        for lane, limit in limits.items():
            if limit <= 0:
                raise ConfigurationError(
                    f"lane {lane!r} capacity must be positive, got {limit!r}"
                )
        self.retry_after = retry_after
        self.lanes: dict[str, LaneStats] = {
            lane: LaneStats(capacity=limit) for lane, limit in limits.items()
        }

    def _lane(self, name: str) -> LaneStats:
        try:
            return self.lanes[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown admission lane {name!r}; lanes are {list(LANES)}"
            ) from None

    @contextlib.contextmanager
    def admit(self, lane_name: str):
        """Admit one request into ``lane_name`` for the duration of a block.

        Raises :class:`AdmissionError` *synchronously* when the lane is at
        capacity — admission never waits, so the shed path stays cheap and
        a full lane cannot build hidden queueing.

        Yields an :class:`AdmissionPermit`; on block exit the request
        settles as ``completed`` unless ``permit.record_timeout()`` was
        called, in which case it settles as ``timeouts``.  A request that
        is admitted and then cancelled by deadline expiry therefore never
        leaks out of the ``admitted == completed + timeouts + in_flight``
        balance.
        """
        lane = self._lane(lane_name)
        if lane.in_flight >= lane.capacity:
            lane.shed += 1
            raise AdmissionError(lane_name, lane.capacity, self.retry_after)
        lane.in_flight += 1
        lane.peak_in_flight = max(lane.peak_in_flight, lane.in_flight)
        lane.admitted += 1
        permit = AdmissionPermit(lane)
        try:
            yield permit
        finally:
            lane.in_flight -= 1
            if permit.timed_out:
                lane.timeouts += 1
            else:
                lane.completed += 1

    def metrics(self) -> dict[str, float]:
        """Flat counters for the metrics exposition, one set per lane."""
        flat: dict[str, float] = {}
        for name, lane in self.lanes.items():
            flat[f"admission_{name}_capacity"] = lane.capacity
            flat[f"admission_{name}_in_flight"] = lane.in_flight
            flat[f"admission_{name}_peak_in_flight"] = lane.peak_in_flight
            flat[f"admission_{name}_admitted"] = lane.admitted
            flat[f"admission_{name}_shed"] = lane.shed
            flat[f"admission_{name}_completed"] = lane.completed
            flat[f"admission_{name}_timeouts"] = lane.timeouts
        return flat
