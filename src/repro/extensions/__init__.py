"""Extensions beyond the paper's evaluated system (its §7 directions).

- :class:`~repro.extensions.walk_index.WalkIndex` — a *lightweight* index
  (cached √c-walk tries with fine-grained invalidation) that accelerates
  repeated queries without giving up dynamic-graph support.
"""

from repro.extensions.walk_index import WalkIndex

__all__ = ["WalkIndex"]
