"""Name → estimator-factory registry for every implemented SimRank method.

One place maps the method names used throughout the paper's experiments
(``"probesim"``, ``"sling"``, ``"tsf"``, ``"topsim"``, ``"mc"``, ``"power"``,
plus the strategy variants and the §7 walk index) to factories with keyword
configuration.  The CLI, the experiment runner, the benchmark harness, and
the serving pool's workers all construct methods exclusively through the
registry, so adding a method is one :func:`register` call.

Each :class:`MethodEntry` declares the method's :class:`Capabilities` — the
only place they are written down; the pool picks epoch rebuild or in-place
delta maintenance from them, and listings read them without building an
estimator.  It also declares ``config_keys`` — the keyword knobs its factory
accepts — so generic callers (the CLI) can filter a superset of options down
to what a method understands, and ``probe_config`` — a cheap configuration
the conformance tests use to instantiate the method on tiny graphs.

Implementation note: estimator classes import :mod:`repro.api.estimator`, so
this module must not import them at module load time (it would be a cycle);
the built-in entries are registered lazily on first registry access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.api.estimator import Capabilities
from repro.errors import ConfigurationError

__all__ = [
    "MethodEntry",
    "available_methods",
    "capability_rows",
    "create",
    "get_entry",
    "method_names",
    "register",
]


@dataclass(frozen=True)
class MethodEntry:
    """One registered method: a named factory, its capability descriptor and
    its configuration surface.

    ``capabilities`` is required: it is the method's one capability
    declaration, read by the pool, the service and :func:`capability_rows`.
    """

    name: str
    factory: Callable
    capabilities: Capabilities = field(kw_only=True)
    summary: str = ""
    config_keys: tuple[str, ...] = ()
    probe_config: dict = field(default_factory=dict)

    def check_config(self, config) -> None:
        """Raise :class:`ConfigurationError` on keys the method does not accept."""
        unknown = sorted(set(config) - set(self.config_keys))
        if unknown:
            raise ConfigurationError(
                f"method {self.name!r} does not accept config keys {unknown}; "
                f"allowed: {sorted(self.config_keys)}"
            )

    def build(self, graph, **config):
        """Construct the estimator on ``graph`` after validating ``config``."""
        self.check_config(config)
        return self.factory(graph, **config)


_REGISTRY: dict[str, MethodEntry] = {}
_BUILTINS_LOADED = False


def register(
    name: str,
    factory: Callable,
    summary: str = "",
    config_keys: tuple[str, ...] = (),
    probe_config: dict | None = None,
    *,
    capabilities: Capabilities,
    replace: bool = False,
) -> MethodEntry:
    """Register an estimator factory under ``name`` with its capabilities.

    ``factory(graph, **config)`` must return an object conforming to
    :class:`repro.api.estimator.SimRankEstimator`; an estimator class whose
    constructor takes those keywords is its own factory.  Registering an
    existing name raises unless ``replace=True``.
    """
    _ensure_builtins()
    if not replace and name in _REGISTRY:
        raise ConfigurationError(f"method {name!r} is already registered")
    entry = MethodEntry(
        name=name,
        factory=factory,
        summary=summary,
        config_keys=tuple(config_keys),
        probe_config=dict(probe_config or {}),
        capabilities=capabilities,
    )
    _REGISTRY[name] = entry
    return entry


def get_entry(name: str) -> MethodEntry:
    """Look up one registry entry, with a helpful error for unknown names."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown method {name!r}; registered: {', '.join(method_names())}"
        ) from None


def create(name: str, graph, **config):
    """Construct the estimator registered under ``name`` on ``graph``."""
    return get_entry(name).build(graph, **config)


def method_names() -> list[str]:
    """All registered method names, sorted."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def available_methods() -> list[MethodEntry]:
    """All registry entries, sorted by name."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in method_names()]


def capability_rows() -> list[dict[str, object]]:
    """Capability table of every registered method (CLI / README table)."""
    rows = []
    for entry in available_methods():
        row = entry.capabilities.as_row()
        row["name"] = entry.name
        row["summary"] = entry.summary
        rows.append(row)
    return rows


# --------------------------------------------------------------------- #
# built-in entries (registered lazily; see module docstring)
# --------------------------------------------------------------------- #

_PROBESIM_KEYS = (
    "c", "eps_a", "delta", "seed", "num_walks", "max_walk_length",
    "sampling_fraction", "truncation_fraction", "pruning_fraction",
    "compensate_truncation", "prune", "hybrid_switch_constant",
)
_PROBESIM_PROBE = {"eps_a": 0.2, "delta": 0.1, "num_walks": 60}


def _register_builtins() -> None:
    """Register the paper's six methods, the strategy variants, and the
    §7 walk index.  Runs once, on first registry access."""
    from repro.baselines.monte_carlo import MonteCarlo
    from repro.baselines.power import PowerMethod
    from repro.baselines.sling import SLINGIndex
    from repro.baselines.topsim import TopSim
    from repro.baselines.tsf import TSFIndex
    from repro.core.config import STRATEGIES
    from repro.core.engine import ProbeSim
    from repro.extensions.walk_index import WalkIndex

    def probesim_factory(strategy: str | None):
        """Factory for ProbeSim, optionally pinned to one strategy."""
        def factory(graph, **config):
            if strategy is not None:
                config["strategy"] = strategy
            return ProbeSim(graph, **config)
        return factory

    def probesim_caps(strategy: str) -> Capabilities:
        """ProbeSim's capability profile (index-free, O(m) sync)."""
        return Capabilities(
            method=f"probesim-{strategy}", exact=False, index_based=False,
            supports_dynamic=True, incremental_updates=False,
            vectorized=strategy == "native", parallel_safe=True,
        )

    register(
        "probesim",
        probesim_factory(None),
        summary="index-free ProbeSim, configurable strategy (default hybrid)",
        config_keys=_PROBESIM_KEYS + ("strategy",),
        probe_config=_PROBESIM_PROBE,
        capabilities=probesim_caps("hybrid"),
    )
    for strategy in STRATEGIES:
        register(
            f"probesim-{strategy}",
            probesim_factory(strategy),
            summary=f"ProbeSim pinned to the {strategy!r} strategy",
            config_keys=_PROBESIM_KEYS,
            probe_config=_PROBESIM_PROBE,
            capabilities=probesim_caps(strategy),
        )

    register(
        "probesim-walkindex",
        WalkIndex,
        summary="ProbeSim + cached walk tries with fine-grained invalidation",
        config_keys=_PROBESIM_KEYS + ("strategy",),
        probe_config=_PROBESIM_PROBE,
        capabilities=Capabilities(
            method="probesim-walkindex", exact=False, index_based=True,
            supports_dynamic=True, incremental_updates=True, vectorized=False,
            parallel_safe=True,
        ),
    )

    register(
        "mc",
        MonteCarlo,
        summary="index-free Monte Carlo √c-walk fingerprints",
        config_keys=("c", "eps_a", "delta", "num_walks", "seed"),
        probe_config={"num_walks": 60},
        capabilities=Capabilities(
            method="mc", exact=False, index_based=False, supports_dynamic=True,
            incremental_updates=False, vectorized=False, parallel_safe=True,
        ),
    )

    def power_factory(graph, c=0.6, iterations=55, seed=None):
        """Exact all-pairs Power Method (deterministic; ``seed`` ignored)."""
        del seed
        return PowerMethod(graph, c=c, iterations=iterations)

    register(
        "power",
        power_factory,
        summary="exact all-pairs Power Method (small graphs only)",
        config_keys=("c", "iterations", "seed"),
        capabilities=Capabilities(
            method="power-method", exact=True, index_based=False,
            supports_dynamic=False, incremental_updates=False, vectorized=False,
            parallel_safe=False,
        ),
    )

    def topsim_factory(variant: str):
        """Factory for one TopSim variant (deterministic; ``seed`` ignored)."""
        def factory(graph, c=0.6, depth=3, degree_threshold=100, eta=0.001,
                    priority_width=100, seed=None):
            del seed
            return TopSim(
                graph, c=c, depth=depth, variant=variant,
                degree_threshold=degree_threshold, eta=eta,
                priority_width=priority_width,
            )
        return factory

    def topsim_caps(method: str) -> Capabilities:
        """The TopSim family's capability profile (index-free, truncated)."""
        return Capabilities(
            method=method, exact=False, index_based=False, supports_dynamic=True,
            incremental_updates=False, vectorized=False, parallel_safe=True,
        )

    topsim_keys = ("c", "depth", "degree_threshold", "eta", "priority_width", "seed")
    register(
        "topsim",
        topsim_factory("full"),
        summary="exhaustive truncated search TopSim-SM",
        config_keys=topsim_keys,
        capabilities=topsim_caps("topsim-sm"),
    )
    register(
        "trun-topsim",
        topsim_factory("truncated"),
        summary="Trun-TopSim-SM (degree/probability-trimmed TopSim)",
        config_keys=topsim_keys,
        capabilities=topsim_caps("trun-topsim-sm"),
    )
    register(
        "prio-topsim",
        topsim_factory("prioritized"),
        summary="Prio-TopSim-SM (priority-width-bounded TopSim)",
        config_keys=topsim_keys,
        capabilities=topsim_caps("prio-topsim-sm"),
    )

    register(
        "tsf",
        TSFIndex,
        summary="TSF one-way-graph index, incremental dynamic maintenance",
        config_keys=("c", "rg", "rq", "depth", "seed"),
        probe_config={"rg": 20, "rq": 4, "depth": 6},
        capabilities=Capabilities(
            method="tsf", exact=False, index_based=True,
            supports_dynamic=True, incremental_updates=True, vectorized=False,
            parallel_safe=True,
        ),
    )

    register(
        "sling",
        SLINGIndex,
        summary="SLING static index: fastest queries, rebuild-only updates",
        config_keys=("c", "theta", "depth", "d_mode", "d_samples", "seed"),
        probe_config={"theta": 1e-3},
        capabilities=Capabilities(
            method="sling", exact=False, index_based=True,
            supports_dynamic=False, incremental_updates=False, vectorized=False,
            parallel_safe=False,
        ),
    )


def _ensure_builtins() -> None:
    """Idempotently register the built-in methods."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    _register_builtins()
