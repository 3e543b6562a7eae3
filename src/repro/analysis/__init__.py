"""Static invariant analysis for the repro codebase.

The serving stack's correctness rests on conventions that no general
linter checks: every RNG must be seed-derived, annotated fields must only
mutate under their lock, every shared-memory/mmap/WAL handle must reach a
finalizer, HTTP error sites must emit the ``{"error": {"code", ...}}``
envelope, and thread/process spawns must go through the pool/server
abstractions.  This package enforces those invariants with stdlib-``ast``
rules (``repro analyze``) plus a runtime lock-order sanitizer
(``repro.analysis.sanitizer``, a pytest plugin).

Layout:

- ``findings``  -- the :class:`~repro.analysis.findings.Finding` model.
- ``visitor``   -- parsed-source context (parents, qualnames, comment
  annotations) shared by every rule.
- ``rules``     -- one module per invariant family.
- ``baseline``  -- committed suppression file with justifications.
- ``runner``    -- two-pass orchestration (project index, then rules).
- ``report``    -- text/JSON reporters with stable ordering.
- ``sanitizer`` -- runtime lock-order + dispatch-thread sanitizer.
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.findings import Finding
from repro.analysis.runner import AnalysisReport, analyze, default_target, iter_rules

__all__ = [
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "analyze",
    "default_target",
    "iter_rules",
]
