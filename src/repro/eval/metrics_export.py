"""Prometheus text-format exposition of serving counters.

One formatter, two consumers: the HTTP tier's ``/metrics`` endpoint
(:mod:`repro.server.app`) and the workload driver's JSON reports
(:meth:`repro.workloads.driver.MethodReport.to_dict`) both flatten their
counters through :func:`service_metrics` / :func:`flatten_metrics` and
render with :func:`render_prometheus` — so a dashboard scraping the live
server and a notebook reading an offline report see identical metric
names for the same quantities.

The exposition format follows the Prometheus text format v0.0.4: one
``# HELP`` + ``# TYPE`` header pair per metric, ``gauge`` type throughout
(counters here are snapshots of monotone totals, which scrapers treat the
same way), names sorted for deterministic output.
"""

from __future__ import annotations

import math
import re
from typing import Mapping

from repro.errors import EvaluationError

__all__ = ["flatten_metrics", "render_prometheus", "sanitize_metric_name", "service_metrics"]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Coerce ``name`` into a valid Prometheus metric name.

    Invalid characters become ``_``; a leading digit gains a ``_`` prefix.
    Raises :class:`EvaluationError` if nothing salvageable remains.
    """
    cleaned = _NAME_BAD_CHARS.sub("_", str(name))
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    if not cleaned or not _NAME_OK.match(cleaned):
        raise EvaluationError(f"cannot derive a metric name from {name!r}")
    return cleaned


def flatten_metrics(*groups: Mapping[str, object] | None, **prefixed) -> dict[str, float]:
    """Merge counter mappings into one flat ``{name: float}`` dict.

    Positional ``groups`` merge as-is (later groups win on collisions);
    keyword arguments are mappings whose keys gain ``"<kwarg>_"`` prefixes
    — ``flatten_metrics(stats, cache=snapshot)`` yields ``cache_hits``,
    ``cache_hit_rate``, ...  Non-numeric and non-finite values raise
    :class:`EvaluationError` (an exposition that silently drops or
    stringifies a counter hides exactly the signal it exists to carry).
    """
    flat: dict[str, float] = {}

    def put(name: str, value: object) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise EvaluationError(
                f"metric {name!r} must be numeric, got {type(value).__name__}"
            )
        if not math.isfinite(value):
            raise EvaluationError(f"metric {name!r} must be finite, got {value!r}")
        flat[sanitize_metric_name(name)] = float(value)

    for group in groups:
        for name, value in (group or {}).items():
            put(name, value)
    for prefix, group in prefixed.items():
        for name, value in (group or {}).items():
            put(f"{prefix}_{name}", value)
    return flat


def service_metrics(
    stats,
    cache: Mapping[str, object] | None = None,
    extra: Mapping[str, object] | None = None,
) -> dict[str, float]:
    """Flatten one service's operational counters for exposition.

    ``stats`` is a :class:`repro.parallel.pool.ServiceStats` (anything with
    an ``as_row()`` of numbers works); ``cache`` is a
    :meth:`repro.parallel.cache.ResultCache.snapshot` dict (exposed under
    a ``cache_`` prefix); ``extra`` adds caller-owned gauges (the HTTP
    tier's admission/coalescing counters) verbatim.
    """
    return flatten_metrics(stats.as_row(), extra, cache=cache)


def _format_value(value: float) -> str:
    """Prometheus sample value: integral floats render without the dot."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(
    metrics: Mapping[str, float],
    namespace: str = "repro",
    help_texts: Mapping[str, str] | None = None,
) -> str:
    """Render flat metrics as a Prometheus text-format exposition.

    Every metric becomes ``<namespace>_<name>`` with a ``# HELP`` /
    ``# TYPE <...> gauge`` header; names are emitted sorted so the output
    is deterministic (and therefore diffable in tests and reports).
    Returns the exposition including the trailing newline scrapers expect.
    """
    help_texts = help_texts or {}
    prefix = sanitize_metric_name(namespace) if namespace else ""
    lines: list[str] = []
    for name in sorted(metrics):
        value = metrics[name]
        full = f"{prefix}_{name}" if prefix else name
        help_text = help_texts.get(name, f"{name} (repro serving counter)")
        lines.append(f"# HELP {full} {help_text}")
        lines.append(f"# TYPE {full} gauge")
        lines.append(f"{full} {_format_value(float(value))}")
    return "\n".join(lines) + "\n" if lines else ""
