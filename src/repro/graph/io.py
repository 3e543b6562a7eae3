"""Edge-list I/O in the SNAP plain-text format.

The paper's datasets ship as whitespace-separated ``source target`` lines with
``#`` comments (SNAP) — these functions read and write that format, with
optional gzip transparency, plus relabelling of arbitrary node ids onto the
dense ``0..n-1`` range the library requires.
"""

from __future__ import annotations

import gzip
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.errors import DatasetError
from repro.graph.digraph import DiGraph


def _open_text(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def parse_edge_lines(
    lines: Iterable[str], path: Path, comments: str = "#", relabel: bool = True
) -> Iterator[tuple[int, int, int]]:
    """Yield ``(lineno, source, target)`` for every edge line of a SNAP file.

    Blank lines and lines starting with ``comments`` are skipped, and
    columns past the second are ignored.  A malformed line raises
    :class:`DatasetError` naming ``path:lineno``; so does a negative id when
    ``relabel`` is off, because verbatim ids index the node range.
    """
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith(comments):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise DatasetError(f"{path}:{lineno}: expected 'source target', got {line!r}")
        try:
            source, target = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: non-integer node id in {line!r}") from exc
        if not relabel and (source < 0 or target < 0):
            raise DatasetError(f"{path}:{lineno}: negative node id with relabel=False")
        yield lineno, source, target


def read_edge_list(
    path: str | Path,
    comments: str = "#",
    relabel: bool = True,
    deduplicate: bool = True,
    drop_self_loops: bool = True,
) -> DiGraph:
    """Load a directed graph from a SNAP-style edge list.

    Parameters
    ----------
    relabel:
        Map arbitrary integer node ids to dense ``0..n-1`` in first-seen
        order (SNAP files are sparse-id).  With ``relabel=False`` ids are used
        verbatim and must already be dense.
    deduplicate:
        Silently drop repeated edges (real SNAP dumps contain them).
    drop_self_loops:
        Silently drop ``u -> u`` lines (SimRank graphs are simple).
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"edge list not found: {path}")

    # Edges stream straight into the graph: no intermediate edge list, no
    # separate seen-set — the graph's own adjacency answers the duplicate
    # check in O(1), so peak memory is the final graph plus one line.
    graph = DiGraph(0)
    label_of: dict[int, int] = {}

    def intern(raw: int) -> int:
        if not relabel:
            return raw
        node = label_of.get(raw)
        if node is None:
            node = graph.add_node()
            label_of[raw] = node
        return node

    with _open_text(path, "r") as handle:
        for lineno, raw_s, raw_t in parse_edge_lines(handle, path, comments, relabel):
            source, target = intern(raw_s), intern(raw_t)
            if source == target:
                if drop_self_loops:
                    continue
                raise DatasetError(f"{path}:{lineno}: self-loop on node {raw_s}")
            if not relabel:
                # verbatim ids: the node range grows to cover kept edges
                # only, matching the old "max id over kept edges" rule
                while graph.num_nodes <= max(source, target):
                    graph.add_node()
            if graph.has_edge(source, target):
                if deduplicate:
                    continue
                raise DatasetError(f"{path}:{lineno}: duplicate edge {raw_s} -> {raw_t}")
            graph.add_edge(source, target)
    return graph


def write_edge_list(graph: DiGraph, path: str | Path, header: str | None = None) -> None:
    """Write ``graph`` as a SNAP-style edge list (gzip if path ends in .gz)."""
    path = Path(path)
    with _open_text(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# nodes: {graph.num_nodes} edges: {graph.num_edges}\n")
        for source, target in graph.edges():
            handle.write(f"{source}\t{target}\n")
