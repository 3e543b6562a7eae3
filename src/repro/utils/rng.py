"""Random-number-generator plumbing.

Every randomized component in the library accepts a ``seed`` argument that may
be ``None`` (fresh OS entropy), an ``int``, or an existing
:class:`numpy.random.Generator`.  Routing all of them through
:func:`as_generator` keeps the whole library reproducible from a single seed
while still allowing callers to share one generator across components.
"""

from __future__ import annotations

import numbers

import numpy as np

SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"


def as_generator(seed=None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged (no copy), so state is
    shared with the caller; anything else is fed to ``numpy.random.default_rng``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generator(rng: np.random.Generator) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    Used when a component needs its own stream (e.g. one per trial batch)
    whose draws do not perturb the parent's sequence.
    """
    seed = rng.integers(0, 2**63 - 1, dtype=np.int64)
    return np.random.default_rng(int(seed))


def derive_stream(seed: int, key: int) -> np.random.Generator:
    """A fresh generator derived deterministically from ``(seed, key)``.

    Unlike :func:`spawn_generator` this consumes no parent state: equal
    ``(seed, key)`` pairs always produce identical streams, regardless of
    what was drawn before or between the calls.  :func:`query_stream` keys
    one stream per ``(seed, query)`` so a query's draws cannot depend on
    call order or batch grouping.
    """
    mask = (1 << 64) - 1  # SeedSequence entropy words must be non-negative
    entropy = np.random.SeedSequence([int(seed) & mask, int(key) & mask])
    return np.random.default_rng(entropy)


def is_int_seed(seed) -> bool:
    """True for integer seeds (python or numpy), never for ``bool``."""
    return isinstance(seed, numbers.Integral) and not isinstance(seed, bool)


def query_stream(seed, rng: np.random.Generator, query: int) -> np.random.Generator:
    """The generator one query's draws come from.

    With an integer ``seed`` this is ``derive_stream(seed, query)``, so the
    answer is a pure function of ``(config, graph state, query)``: the same
    bytes whatever ran before it, however a serving tier batched it, and on
    whichever (possibly just revived) worker it ran.  Otherwise (OS entropy
    or a caller-owned generator) there is nothing to reproduce and the
    estimator's shared ``rng`` is returned.
    """
    if is_int_seed(seed):
        return derive_stream(seed, query)
    return rng
