"""Update-aware LRU cache for single-source SimRank results.

Serving traffic is Zipf-skewed: a small set of hot query nodes dominates
the request mix (the workload generator reproduces exactly this shape).
Once a hot query has been answered, re-answering it costs a full round of
√c-walk sampling and probing — unless the graph changed, the previous
answer is just as good.  :class:`ResultCache` memoizes single-source
results under the key ``(method, query, epoch)``:

``method``
    The service-local method name the answer came from — two mounted
    methods never share answers.
``query``
    The query node id.
``epoch``
    The graph generation the answer was computed against.  Every
    full-rebuild :meth:`~repro.parallel.pool.ParallelSimRankService.sync`
    bumps the service epoch, so entries from before a graph mutation can
    never be served afterwards — the cache is *update-aware* by
    construction.  :meth:`ResultCache.invalidate_older` purges the dead
    generations eagerly (and counts them), keeping capacity for live
    entries.

Delta maintenance invalidates *by neighborhood* instead: when a small
update burst is absorbed in place (the epoch does not move),
:meth:`ResultCache.invalidate_nodes` drops only the entries whose query
node falls in the touched neighborhood — the updated edges' endpoints plus
their in/out neighbors — and keeps every other hot key warm.  This is a
deliberate locality heuristic, not an exactness guarantee: SimRank
perturbations decay geometrically (as ``c`` per hop) with distance from a
flipped edge, so the 1-hop set catches the dominant terms while entries
further out may serve answers slightly staler than a recompute — the same
freshness-for-throughput trade as the driver's ``sync_every`` knob.
Callers needing strictly fresh hits use rebuild maintenance (every sync
turns the whole cache over) or disable caching.

The cache is coordinator-side: every executor probes it from the
coordinator's dispatch loop, and ``repro serve``'s event loop probes it
too (:meth:`ResultCache.hit`, through
:meth:`~repro.parallel.pool.ParallelSimRankService.cached`) so a hot key
is answered without reaching the dispatch thread.  It is locked because
those two threads, and readers such as ``/metrics``, share it while the
service runs.  Counters must therefore be read through
:meth:`ResultCache.snapshot` (one locked read), never field-by-field — a
report assembled from unlocked reads can embed torn hit/miss pairs.
Capacity is bounded by LRU eviction; ``capacity == 0`` disables caching
entirely (every :meth:`ResultCache.get` misses).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["CacheStats", "ResultCache"]


@dataclass
class CacheStats:
    """Operational counters of one :class:`ResultCache`.

    ``invalidations`` counts entries purged because their graph epoch was
    superseded (the update-aware path); ``evictions`` counts entries pushed
    out by the LRU capacity bound.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Counted lookups: every :meth:`ResultCache.get` call plus every
        :meth:`ResultCache.hit` that hit."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-ready counter snapshot.

        Reads the fields without synchronisation — on a live, concurrently
        updated cache use :meth:`ResultCache.snapshot` instead, which takes
        the cache lock and cannot observe torn hit/miss pairs.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """Bounded LRU map ``(method, query, epoch) -> result``.

    The cached value is opaque to the cache (the serving layers store
    :class:`~repro.core.results.SimRankResult` objects).  All operations
    are O(1) and guarded by one lock; see the module docstring for the
    keying discipline.

    >>> cache = ResultCache(capacity=2)
    >>> cache.put("probesim", 4, 0, "answer")
    >>> cache.get("probesim", 4, 0)
    'answer'
    >>> cache.get("probesim", 4, 1) is None  # epoch bumped: miss
    True
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.stats = CacheStats()  # guarded-by: _lock
        # guarded-by: _lock
        self._entries: OrderedDict[tuple[str, int, int], object] = OrderedDict()
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """False for the ``capacity == 0`` no-op configuration."""
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, method: str, query: int, epoch: int):
        """The cached result for the key, or ``None`` (counted either way)."""
        return self._lookup(method, query, epoch, count_miss=True)

    def hit(self, method: str, query: int, epoch: int):
        """Like :meth:`get`, but a miss is not counted.

        For a probe whose miss goes on to the :meth:`get` of the dispatch
        path, which counts it there: each lookup is counted once, so
        ``hits + misses`` stays the number of answers asked for.
        """
        return self._lookup(method, query, epoch, count_miss=False)

    def _lookup(self, method: str, query: int, epoch: int, count_miss: bool):
        if not self.enabled:
            return None
        key = (method, int(query), int(epoch))
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            if count_miss:
                self.stats.misses += 1
            return None

    def put(self, method: str, query: int, epoch: int, result) -> None:
        """Insert (or refresh) one entry, evicting LRU past capacity."""
        if not self.enabled:
            return
        key = (method, int(query), int(epoch))
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def invalidate_older(self, epoch: int) -> int:
        """Purge every entry from a generation before ``epoch``.

        Entries keyed to older epochs can never hit again (lookups always
        use the current epoch); purging them eagerly frees capacity and
        makes the update-aware behaviour observable in the counters.
        Returns the number of entries invalidated.
        """
        with self._lock:
            dead = [key for key in self._entries if key[2] < epoch]
            for key in dead:
                del self._entries[key]
            self.stats.invalidations += len(dead)
            return len(dead)

    def invalidate_nodes(self, nodes) -> int:
        """Purge every entry whose *query node* is in ``nodes`` (any epoch).

        This is the delta-maintenance counterpart of
        :meth:`invalidate_older`: a small update burst absorbed in place
        leaves the epoch unchanged, so staleness is scoped by graph
        locality instead of by generation — the caller passes the touched
        neighborhood and everything outside it stays warm (accepting the
        geometrically decaying residual staleness described in the module
        docstring).  Returns the number of entries invalidated (also added
        to the counters).
        """
        targets = {int(node) for node in nodes}
        if not targets:
            return 0
        with self._lock:
            dead = [key for key in self._entries if key[1] in targets]
            for key in dead:
                del self._entries[key]
            self.stats.invalidations += len(dead)
            return len(dead)

    def clear(self) -> None:
        """Drop every entry without touching the counters."""
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> dict[str, object]:
        """One consistent, locked counter snapshot (plus the live size).

        This is what reports should embed: every counter (and the derived
        ``hit_rate``) is read under the cache lock in a single critical
        section, so concurrent lookups can never tear the numbers
        (e.g. ``hits + misses != lookups``).
        """
        with self._lock:
            payload = self.stats.as_dict()
            payload["size"] = len(self._entries)
            return payload

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"ResultCache(capacity={self.capacity}, size={snap['size']}, "
            f"hit_rate={snap['hit_rate']:.2f})"
        )
