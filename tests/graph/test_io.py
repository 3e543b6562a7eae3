"""Unit tests for SNAP-style edge-list I/O."""

import gzip

import pytest

from repro.errors import DatasetError
from repro.graph import DiGraph, read_edge_list, write_edge_list


class TestReadEdgeList:
    def test_basic_read(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n0 1\n1 2\n2 0\n")
        g = read_edge_list(path)
        assert g.num_nodes == 3
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 0)]

    def test_relabels_sparse_ids(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1000 5\n5 70\n")
        g = read_edge_list(path)
        assert g.num_nodes == 3
        # first-seen order: 1000 -> 0, 5 -> 1, 70 -> 2
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 2)

    def test_no_relabel_requires_dense_ids(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        g = read_edge_list(path, relabel=False)
        assert g.num_nodes == 3
        assert g.has_edge(0, 1)

    def test_tabs_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\t1\n\n2\t1\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_deduplicates_by_default(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n0 1\n")
        assert read_edge_list(path).num_edges == 1

    def test_duplicate_strict_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n0 1\n")
        with pytest.raises(DatasetError):
            read_edge_list(path, deduplicate=False)

    def test_drops_self_loops_by_default(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n")
        assert read_edge_list(path).num_edges == 1

    def test_self_loop_strict_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 3\n")
        with pytest.raises(DatasetError):
            read_edge_list(path, drop_self_loops=False)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(DatasetError):
            read_edge_list(path)

    def test_non_integer_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(DatasetError):
            read_edge_list(path)

    def test_negative_id_without_relabel_names_the_line(self, tmp_path):
        """Verbatim ids index the node range, so ``-1`` is a malformed line
        reported with its position, as ``repro ingest`` reports it."""
        from repro.storage import ingest_edge_list

        path = tmp_path / "g.txt"
        path.write_text("0 1\n-1 0\n")
        with pytest.raises(DatasetError, match=r"g\.txt:2: negative node id"):
            read_edge_list(path, relabel=False)
        with pytest.raises(DatasetError, match=r"g\.txt:2: negative node id"):
            ingest_edge_list(path, tmp_path / "g.csr", relabel=False)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            read_edge_list(tmp_path / "nope.txt")

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "g.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("0 1\n1 0\n")
        assert read_edge_list(path).num_edges == 2


class TestWriteEdgeList:
    def test_round_trip(self, toy, tmp_path):
        path = tmp_path / "toy.txt"
        write_edge_list(toy, path)
        assert read_edge_list(path, relabel=False) == toy

    def test_round_trip_gzip(self, toy, tmp_path):
        path = tmp_path / "toy.txt.gz"
        write_edge_list(toy, path)
        assert read_edge_list(path, relabel=False) == toy

    def test_header_written_as_comments(self, tmp_path):
        g = DiGraph.from_edges([(0, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path, header="hello\nworld")
        lines = path.read_text().splitlines()
        assert lines[0] == "# hello"
        assert lines[1] == "# world"


class TestStreamingMemoryBound:
    def test_peak_memory_tracks_final_graph_not_edge_list(self, tmp_path):
        """read_edge_list streams: peak allocation must stay close to the
        retained graph, never a transient copy of the whole edge list.

        A regression to list-accumulate-then-build roughly doubles the
        peak (edge list + graph alive at once), so a 1.5x ratio bound
        catches it with margin while staying robust to allocator noise.
        """
        import tracemalloc

        path = tmp_path / "chain.txt"
        n = 20_000
        with open(path, "w", encoding="utf-8") as handle:
            for node in range(n - 1):
                handle.write(f"{node} {node + 1}\n")
                handle.write(f"{node + 1} {node}\n")

        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        graph = read_edge_list(path)
        retained = tracemalloc.get_traced_memory()[0] - before
        _, peak = tracemalloc.get_traced_memory()
        transient_peak = peak - before
        tracemalloc.stop()

        assert graph.num_edges == 2 * (n - 1)
        assert retained > 0
        assert transient_peak < 1.5 * retained, (
            f"peak {transient_peak} vs retained {retained}: "
            "read_edge_list is buffering the edge list"
        )
