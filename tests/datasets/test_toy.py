"""Locks the Figure 1 toy-graph reconstruction against every fact the paper
prints about it (DESIGN.md §6)."""

import pytest

from repro.baselines.power import PowerMethod
from repro.datasets.toy import (
    TOY_DECAY,
    TOY_EDGES,
    TOY_EXPECTED_SIMRANK_FROM_A,
    TOY_TABLE2_TOLERANCE,
    node_id,
    toy_graph,
)


class TestStructure:
    def test_counts(self, toy):
        assert toy.num_nodes == 8
        assert toy.num_edges == 20
        assert len(TOY_EDGES) == 20

    def test_in_degrees_pinned_by_worked_example(self, toy):
        # §3.2 denominators: |I(a)|=2, |I(b)|=2, |I(c)|=3, |I(d)|=1,
        # |I(e)|=2, |I(f)|=4, |I(g)|=3, |I(h)|=3
        expected = dict(zip("abcdefgh", [2, 2, 3, 1, 2, 4, 3, 3]))
        for name, degree in expected.items():
            assert toy.in_degree(node_id(name)) == degree, name

    def test_probe_expansion_edges(self, toy):
        # the probing tree of Figure 2: b's out-neighbours are a, c, d, e...
        assert sorted(toy.out_neighbors(node_id("b"))) == [
            node_id("a"), node_id("c"), node_id("d"), node_id("e"),
        ]
        # ...c, d, e all point to f, g, h
        for src in "cde":
            for dst in "fgh":
                assert toy.has_edge(node_id(src), node_id(dst)), (src, dst)
        # only c points back at a
        assert toy.has_edge(node_id("c"), node_id("a"))
        assert not toy.has_edge(node_id("d"), node_id("a"))
        assert not toy.has_edge(node_id("e"), node_id("a"))

    def test_g_h_share_in_neighbourhood(self, toy):
        """Table 2 gives s(a,g) = s(a,h); SimRank from a depends only on
        in-edges, so g and h must have identical in-neighbour sets."""
        assert sorted(toy.in_neighbors(node_id("g"))) == sorted(
            toy.in_neighbors(node_id("h"))
        )

    def test_node_id_mapping(self):
        assert node_id("a") == 0
        assert node_id("h") == 7
        with pytest.raises(KeyError):
            node_id("z")

    def test_fresh_instances(self):
        assert toy_graph() is not toy_graph()
        assert toy_graph() == toy_graph()


class TestTable2:
    def test_power_method_reproduces_table2(self, toy):
        S = PowerMethod(toy, c=TOY_DECAY).compute(iterations=80)
        for name, expected in TOY_EXPECTED_SIMRANK_FROM_A.items():
            got = float(S[node_id("a"), node_id(name)])
            assert got == pytest.approx(expected, abs=TOY_TABLE2_TOLERANCE), name

    def test_d_is_top1_for_a(self, toy_truth):
        assert int(toy_truth.topk_nodes(0, 1)[0]) == node_id("d")

    def test_decay_is_quarter(self):
        assert TOY_DECAY == 0.25
        assert TOY_DECAY**0.5 == 0.5
