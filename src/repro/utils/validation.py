"""Argument-validation helpers.

These raise :class:`repro.errors.ConfigurationError` (a ``ValueError``
subclass) for bad parameters and :class:`repro.errors.QueryError` for bad
query ids, with uniform messages, so every public entry point reports them
the same way.
"""

from __future__ import annotations

import math
import operator

from repro.errors import ConfigurationError, QueryError


def check_positive(name: str, value: float) -> float:
    """Validate that ``value`` is a finite number strictly greater than zero."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {type(value).__name__}")
    if not math.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def check_positive_int(name: str, value: int) -> int:
    """Validate that ``value`` is an integer strictly greater than zero."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies in the open interval (0, 1)."""
    value = check_positive(name, value)
    if value >= 1:
        raise ConfigurationError(f"{name} must lie in (0, 1), got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {type(value).__name__}")
    if not math.isfinite(value) or value < 0 or value > 1:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def check_query_node(query, num_nodes: int) -> int:
    """Validate one query node id and return it as a Python ``int``.

    Python and numpy integers pass; bools, floats, strings and ids outside
    ``[0, num_nodes)`` raise :class:`QueryError`.
    """
    if isinstance(query, bool) or not hasattr(query, "__index__"):
        raise QueryError(f"query node must be an int, got {type(query).__name__}")
    node = operator.index(query)
    if not 0 <= node < num_nodes:
        raise QueryError(f"query node {node} out of range [0, {num_nodes})")
    return node
