"""Native ProbeSim hot path: vectorized walks, prefix trie, hybrid sweep.

``strategy="native"`` answers an Algorithm 3 query in two
array-at-a-time stages: counter-RNG walk sampling (:mod:`.rng`) that
builds the prefix trie's levels (:class:`~repro.core.walk_trie.WalkTrie`)
as the walks step, so walks and trie are one pass, and a hybrid
sparse/dense level sweep (:mod:`.engine`) whose dense levels merge
siblings before they propagate, so a dense product runs at the narrower
parent width.  The sampler and the sweep's
per-level primitives live in :mod:`.fallback` — numpy/scipy code with no
compiler dependency.  The sampler is ProbeSim's only walk sampler: the
per-prefix strategies and the walk index draw their walks through it
too.

:func:`resolve_impl` returns that primitive namespace and is the seam the
sweep takes it through, so instrumentation can wrap it (count or time
level transitions) without touching the engine.
"""

from __future__ import annotations

from repro.core.native import fallback
from repro.core.native.engine import (
    NativeContext,
    context_for,
    make_context,
    probe_trie,
    run_query,
)
from repro.core.native.rng import stream_base, walk_bases

__all__ = [
    "NativeContext",
    "context_for",
    "make_context",
    "native_backend",
    "probe_trie",
    "resolve_impl",
    "run_query",
    "stream_base",
    "walk_bases",
]


def native_backend() -> str:
    """Name of the primitive implementation the native engine runs on."""
    return "numpy"


def resolve_impl():
    """The primitive namespace :func:`probe_trie` and :func:`run_query` take."""
    return fallback
