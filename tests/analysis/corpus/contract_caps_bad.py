"""Known-bad Capabilities declarations (fixture corpus — never imported)."""

from repro.api.estimator import Capabilities


def partial_caps() -> Capabilities:
    return Capabilities(  # finding: omits the three defaulted fields
        method="corpus",
        exact=False,
        index_based=False,
        supports_dynamic=True,
    )


def full_caps() -> Capabilities:
    return Capabilities(  # ok: every field explicit
        method="corpus",
        exact=False,
        index_based=False,
        supports_dynamic=True,
        incremental_updates=False,
        vectorized=False,
        parallel_safe=True,
    )
