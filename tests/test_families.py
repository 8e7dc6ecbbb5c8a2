"""Named graph families: builders, metadata, and seeded random helpers."""

from __future__ import annotations

import random

import pytest

from treestretch.families import (
    Chain,
    Complete,
    CompleteBipartite,
    CompleteMultipartite,
    Cycle,
    Diamond,
    GeneralizedConvex,
    Petersen,
    RectGrid,
    Split,
    TriGrid,
    TriRectGrid,
    Wheel,
    chain_instance,
    make,
    random_convex_spec,
    random_glued_blocks,
    random_split_spec,
)
from treestretch.convex import validate_instance
from treestretch.graphs import ParameterError, blocks, girth, is_connected
from treestretch.solver import count_spanning_trees_kirchhoff


class TestBasicFamilies:
    def test_complete(self):
        fg = make(Complete(5))
        assert fg.graph.n == 5 and fg.graph.m == 10
        assert fg.meta["family"] == "complete"

    def test_cycle(self):
        fg = make(Cycle(6))
        assert fg.graph.m == 6
        assert all(fg.graph.degree(v) == 2 for v in range(6))

    def test_wheel(self):
        fg = make(Wheel(6))
        g = fg.graph
        assert g.m == 10
        hub_degrees = sorted(g.degree(v) for v in range(6))
        assert hub_degrees == [3, 3, 3, 3, 3, 5]
        assert girth(g) == 3

    def test_diamond(self):
        fg = make(Diamond(5))
        g = fg.graph
        assert g.m == 7
        assert g.has_edge(0, 1)
        for v in range(2, 5):
            assert g.has_edge(0, v) and g.has_edge(1, v)
            assert g.degree(v) == 2

    def test_bipartite(self):
        fg = make(CompleteBipartite(2, 3))
        assert fg.graph.n == 5 and fg.graph.m == 6
        assert fg.meta["family"] == "bipartite"
        assert girth(fg.graph) == 4

    def test_multipartite(self):
        fg = make(CompleteMultipartite((1, 2, 2)))
        g = fg.graph
        assert g.n == 5
        assert g.m == (25 - (1 + 4 + 4)) // 2
        assert fg.meta["parts"] == [[0], [1, 2], [3, 4]]

    def test_petersen(self):
        fg = make(Petersen())
        g = fg.graph
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in range(10))
        assert girth(g) == 5
        assert count_spanning_trees_kirchhoff(g) == 2000

    def test_validation(self):
        with pytest.raises(ParameterError):
            Cycle(2)
        with pytest.raises(ParameterError):
            Wheel(3)
        with pytest.raises(ParameterError):
            Diamond(3)
        with pytest.raises(ParameterError):
            CompleteMultipartite((3,))
        with pytest.raises(ParameterError):
            CompleteMultipartite((0, 2))


class TestSplitFamily:
    def test_spec_example_six_vertices(self):
        fg = make(Split(3, [{0, 1}, {1, 2}, {0, 2}]))
        assert fg.graph.n == 6 and fg.graph.m == 9

    def test_spec_example_path(self):
        fg = make(Split(2, [{0}]))
        g = fg.graph
        assert g.n == 3 and g.m == 2
        assert g.degree(0) == 2

    def test_spec_example_bare_clique(self):
        fg = make(Split(4, []))
        assert fg.graph.m == 6

    def test_validation(self):
        with pytest.raises(ParameterError, match="empty neighbor set"):
            Split(3, (frozenset(),))
        with pytest.raises(ParameterError, match="outside the clique"):
            Split(2, (frozenset({2}),))
        with pytest.raises(ParameterError):
            Split(0, ())


class TestChainFamily:
    def test_graph_shape(self):
        fg = make(Chain(2, 3, (2, 3)))
        assert fg.graph.n == 5 and fg.graph.m == 5

    def test_instance_prefix_sets(self):
        inst = chain_instance(Chain(3, 4, (2, 3, 4)))
        assert inst.sigma == (
            frozenset({0, 1}),
            frozenset({0, 1, 2}),
            frozenset({0, 1, 2, 3}),
        )
        assert inst.tau_edges == ((0, 1), (1, 2), (2, 3))

    def test_validation(self):
        with pytest.raises(ParameterError, match="one neighbor-set size"):
            Chain(2, 3, (3,))
        with pytest.raises(ParameterError, match="nondecreasing"):
            Chain(2, 3, (3, 2))
        with pytest.raises(ParameterError, match="cover Y"):
            Chain(2, 3, (1, 2))
        with pytest.raises(ParameterError, match="1..n"):
            Chain(2, 3, (0, 3))


class TestGeneralizedConvexFamily:
    def test_make_wraps_instance(self):
        inst = validate_instance(3, [(0, 1), (1, 2)], [[0, 1], [1, 2]])
        fg = make(GeneralizedConvex(inst))
        assert fg.graph == inst.graph
        assert fg.meta["family"] == "generalized-convex"


class TestGrids:
    def test_rect_shape(self):
        fg = make(RectGrid(3, 4))
        g = fg.graph
        assert g.n == 12
        assert g.m == 3 * 3 + 4 * 2
        kinds = fg.meta["edge_kinds"]
        assert kinds.count("horizontal") == 9
        assert kinds.count("vertical") == 8
        assert len(fg.meta["coordinates"]) == 12
        assert girth(g) == 4

    def test_tri_shape(self):
        fg = make(TriGrid(3))
        g = fg.graph
        assert g.n == 10
        assert g.m == 18
        kinds = fg.meta["edge_kinds"]
        assert kinds.count("horizontal") == 6
        assert kinds.count("vertical") == 6
        assert kinds.count("slant") == 6
        assert girth(g) == 3

    def test_tri_rect_shape(self):
        fg = make(TriRectGrid(3, 4))
        g = fg.graph
        assert g.n == 12
        assert g.m == 17 + 6
        assert fg.meta["edge_kinds"].count("slant") == 6
        assert girth(g) == 3

    def test_validation(self):
        with pytest.raises(ParameterError):
            RectGrid(3, 2)
        with pytest.raises(ParameterError):
            RectGrid(1, 5)
        with pytest.raises(ParameterError):
            TriGrid(0)
        with pytest.raises(ParameterError):
            TriRectGrid(4, 3)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 5), (3, 3), (4, 7), (6, 6)])
    def test_rect_edge_kinds(self, m, n):
        fg = make(RectGrid(m, n))
        kinds = fg.meta["edge_kinds"]
        assert fg.graph.n == len(fg.meta["coordinates"]) == m * n
        assert kinds.count("horizontal") == m * (n - 1)
        assert kinds.count("vertical") == (m - 1) * n
        assert len(kinds) == fg.graph.m

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_tri_edge_kinds(self, n):
        fg = make(TriGrid(n))
        kinds = fg.meta["edge_kinds"]
        assert fg.graph.n == len(fg.meta["coordinates"]) == (n + 1) * (n + 2) // 2
        for kind in ("horizontal", "vertical", "slant"):
            assert kinds.count(kind) == n * (n + 1) // 2
        assert len(kinds) == fg.graph.m

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 5), (3, 3), (4, 7), (6, 6)])
    def test_tri_rect_edge_kinds(self, m, n):
        fg = make(TriRectGrid(m, n))
        kinds = fg.meta["edge_kinds"]
        assert fg.graph.n == len(fg.meta["coordinates"]) == m * n
        assert kinds.count("horizontal") == m * (n - 1)
        assert kinds.count("vertical") == (m - 1) * n
        assert kinds.count("slant") == (m - 1) * (n - 1)
        assert len(kinds) == fg.graph.m

    def test_edge_kinds_align_with_edges(self):
        for fg in (make(RectGrid(2, 3)), make(TriGrid(2)), make(TriRectGrid(2, 2))):
            assert len(fg.meta["edge_kinds"]) == fg.graph.m


class TestRandomHelpers:
    def test_split_spec_deterministic_and_cyclic(self):
        a = random_split_spec(random.Random(7))
        b = random_split_spec(random.Random(7))
        assert a == b
        g = make(a).graph
        assert g.m >= g.n  # contains a cycle by construction

    def test_convex_spec_deterministic(self):
        a = random_convex_spec(random.Random(11))
        b = random_convex_spec(random.Random(11))
        assert a == b

    def test_convex_spec_require_cycle(self):
        rng = random.Random(5)
        for _ in range(10):
            spec = random_convex_spec(rng, require_cycle=True)
            g = spec.instance.graph
            assert g.m >= g.n

    def test_glued_blocks(self):
        rng = random.Random(99)
        for _ in range(5):
            g = random_glued_blocks(rng)
            assert is_connected(g)
            dec = blocks(g)
            assert 2 <= len(dec.blocks) <= 4
            assert count_spanning_trees_kirchhoff(g) <= 10_000

    def test_glued_blocks_deterministic(self):
        a = random_glued_blocks(random.Random(3))
        b = random_glued_blocks(random.Random(3))
        assert a == b
