"""Closed-form stretch values and the trees that attain them."""

from __future__ import annotations

from collections import Counter

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
    classify_split,
    double_star_tree,
    make,
    optimal_construction,
    petersen_tree,
    sigma_formula,
    split_tree,
    star_tree,
)
from treestretch.convex import validate_instance
from treestretch.graphs import (
    DomainError,
    ValidationError,
    make_graph,
    stretch,
)
from treestretch.planar import face_levels
from treestretch.solver import sigma_exact


class TestFormulaValues:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (Complete(1), 0),
            (Complete(2), 1),
            (Complete(3), 2),
            (Complete(6), 2),
            (Cycle(3), 2),
            (Cycle(8), 7),
            (Wheel(4), 2),
            (Wheel(7), 2),
            (Diamond(4), 2),
            (Diamond(6), 2),
            (CompleteBipartite(1, 1), 1),
            (CompleteBipartite(1, 4), 1),
            (CompleteBipartite(2, 2), 3),
            (CompleteBipartite(4, 4), 3),
            (CompleteMultipartite((1, 1, 1)), 2),
            (CompleteMultipartite((1, 2, 2)), 2),
            (CompleteMultipartite((2, 2, 2)), 3),
            (CompleteMultipartite((2, 3, 3)), 3),
            (Petersen(), 4),
            (Chain(2, 3, (2, 3)), 3),
            (RectGrid(2, 2), 3),
            (RectGrid(3, 5), 3),
            (RectGrid(4, 4), 5),
            (RectGrid(6, 7), 7),
            (TriGrid(1), 2),
            (TriGrid(3), 3),
            (TriGrid(4), 4),
            (TriRectGrid(2, 5), 2),
            (TriRectGrid(5, 5), 5),
        ],
    )
    def test_value(self, spec, expected):
        assert sigma_formula(spec) == expected

    def test_chain_degenerate(self):
        assert sigma_formula(Chain(1, 3, (3,))) == 1

    def test_convex_instance_formula(self):
        inst = validate_instance(
            5,
            [(0, 1), (1, 2), (2, 3), (3, 4)],
            [[0, 1, 2], [1, 2, 3], [2, 3, 4]],
        )
        assert sigma_formula(GeneralizedConvex(inst)) == 3

    def test_convex_instance_degenerate(self):
        inst = validate_instance(2, [(0, 1)], [[0, 1]])
        assert sigma_formula(GeneralizedConvex(inst)) == 1


class TestStarTrees:
    def test_star(self):
        g = make(Complete(5)).graph
        t = star_tree(g, 2)
        assert stretch(g, t).stretch == 2

    def test_star_needs_universal_center(self):
        g = make(Cycle(5)).graph
        with pytest.raises(ValidationError):
            star_tree(g, 0)

    def test_double_star(self):
        g = make(CompleteBipartite(3, 3)).graph
        t = double_star_tree(g, 0, 3)
        assert stretch(g, t).stretch == 3

    def test_double_star_requires_coverage(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValidationError):
            double_star_tree(g, 0, 1)


class TestMultipartite:
    def test_star_when_singleton_part(self):
        spec = CompleteMultipartite((1, 2, 3))
        t = optimal_construction(spec).tree
        g = t.host
        assert stretch(g, t).stretch == 2

    def test_double_star_otherwise(self):
        spec = CompleteMultipartite((2, 2, 3))
        t = optimal_construction(spec).tree
        g = t.host
        assert stretch(g, t).stretch == 3

    @pytest.mark.parametrize(
        "parts,center,other",
        [((2, 1, 2), 2, None), ((3, 2, 2), 3, 5), ((3, 3, 2, 3), 6, 0), ((4, 2, 3), 4, 6),
         ((3, 2), 3, 0)],
    )
    def test_any_part_order(self, parts, center, other):
        spec = CompleteMultipartite(parts)
        t = optimal_construction(spec).tree
        g = t.host
        assert stretch(g, t).stretch == sigma_formula(spec) == (2 if other is None else 3)
        assert t.adjacency[center] == tuple(v for v in range(g.n) if g.has_edge(center, v))
        if other is not None:
            assert center in t.adjacency[other]


class TestHubTree:
    """The dense families' trees: a star or a double star read off the degrees."""

    @pytest.mark.parametrize(
        "spec,centres",
        [
            (Complete(5), (0,)),
            (Wheel(4), (0,)),
            (Wheel(7), (0,)),
            (Diamond(6), (0,)),
            (CompleteBipartite(3, 3), (0, 3)),
            (CompleteBipartite(4, 2), (4, 0)),
            (CompleteMultipartite((3, 1, 2)), (3,)),
            (CompleteMultipartite((3, 2, 2)), (3, 5)),
            (Chain(3, 4, (2, 4, 4)), (1, 3)),
            (Chain(4, 2, (1, 2, 2, 2)), (4, 1)),
        ],
        ids=repr,
    )
    def test_centres(self, spec, centres):
        """A star at the one centre, else each vertex on the first centre it sees."""
        t = optimal_construction(spec).tree
        g = t.host
        assert stretch(g, t).stretch == sigma_formula(spec)
        x, *rest = centres
        if not rest:
            assert len(t.adjacency[x]) == g.n - 1
            return
        (y,) = rest
        assert y in t.adjacency[x]
        for v in range(g.n):
            if v not in centres:
                assert t.adjacency[v] == ((x,) if g.has_edge(v, x) else (y,))


class TestSplitClassification:
    def test_sigma_two_example(self):
        fg = make(Split(3, [{0, 1}, {1, 2}]))
        clique, independent = [0, 1, 2], [3, 4]
        cls = classify_split(fg.graph, clique, independent)
        assert cls.sigma == 2
        assert cls.witness == 1
        assert cls.refutations == {}
        t = split_tree(fg.graph, clique, independent)
        assert stretch(fg.graph, t).stretch == 2

    def test_sigma_three_example(self):
        fg = make(Split(3, [{0, 1}, {1, 2}, {0, 2}]))
        clique, independent = [0, 1, 2], [3, 4, 5]
        cls = classify_split(fg.graph, clique, independent)
        assert cls.sigma == 3
        assert cls.witness is None
        assert set(cls.refutations) == {0, 1, 2}
        for x0, y in cls.refutations.items():
            assert y in independent
            assert not fg.graph.has_edge(x0, y)
            assert fg.graph.degree(y) >= 2
        t = split_tree(fg.graph, clique, independent)
        assert stretch(fg.graph, t).stretch == 3

    def test_bare_clique_is_sigma_two(self):
        fg = make(Split(3, []))
        cls = classify_split(fg.graph, [0, 1, 2], [])
        assert cls.sigma == 2

    def test_pendants_do_not_force_three(self):
        fg = make(Split(3, [{0}, {0}, {1}]))
        cls = classify_split(fg.graph, [0, 1, 2], [3, 4, 5])
        assert cls.sigma == 2
        t = split_tree(fg.graph, [0, 1, 2], [3, 4, 5])
        assert stretch(fg.graph, t).stretch == 2

    def test_tree_refused(self):
        fg = make(Split(2, [{0}]))
        with pytest.raises(DomainError, match="dichotomy does not apply"):
            classify_split(fg.graph, [0, 1], [2])

    def test_bad_partition(self):
        g = make(Cycle(4)).graph
        with pytest.raises(ValidationError):
            classify_split(g, [0, 1], [2, 3])

    def test_matches_exact_on_samples(self):
        samples = [
            (2, [{0, 1}]),
            (3, [{0, 1, 2}]),
            (3, [{0, 1}, {0, 1}]),
            (4, [{0, 1}, {2, 3}, {1, 2}]),
            (4, [{0, 1, 2, 3}, {0}, {3}]),
        ]
        for k, adjacency in samples:
            fg = make(Split(k, adjacency))
            clique = list(range(k))
            independent = list(range(k, k + len(adjacency)))
            cls = classify_split(fg.graph, clique, independent)
            assert cls.sigma == sigma_exact(fg.graph).sigma
            t = split_tree(fg.graph, clique, independent)
            assert stretch(fg.graph, t).stretch == cls.sigma


class TestPetersen:
    def test_tree_attains_four(self):
        g = make(Petersen()).graph
        t = petersen_tree(g)
        assert stretch(g, t).stretch == 4


class TestGridTrees:
    def test_rect_middle_row(self):
        t = optimal_construction(RectGrid(3, 3)).tree
        g = t.host
        assert stretch(g, t).stretch == 3
        # row 1 is the horizontal spine: edges (3,4) and (4,5)
        assert g.edge_index[(3, 4)] in t.tree_edges
        assert g.edge_index[(4, 5)] in t.tree_edges

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 5), (3, 4), (4, 5), (5, 6), (6, 6)])
    def test_rect_matches_formula(self, m, n):
        t = optimal_construction(RectGrid(m, n)).tree
        assert stretch(t.host, t).stretch == 2 * (m // 2) + 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_tri_matches_formula(self, n):
        t = optimal_construction(TriGrid(n)).tree
        assert stretch(t.host, t).stretch == (2 * n + 2) // 3 + 1

    def test_tri_crossing_is_corner_of_first_deepest_face(self):
        # The tri rule pins row c and column c, c = (n + 1) // 3, through the one
        # corner (x, x) of the first deepest face.
        for n in range(1, 41):
            built = make(TriGrid(n))
            levels = face_levels(built.plane)
            face = built.plane.faces[levels.index(max(levels))]
            points = [tuple(built.meta["coordinates"][v]) for v in face]
            c = (n + 1) // 3
            assert [p for p in points if p[0] == p[1]] == [(c, c)], n

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (3, 3), (3, 5), (4, 4), (5, 6)])
    def test_tri_rect_matches_formula(self, m, n):
        t = optimal_construction(TriRectGrid(m, n)).tree
        assert stretch(t.host, t).stretch == m

    @pytest.mark.parametrize(
        "spec",
        [RectGrid(2, 2), RectGrid(3, 5), RectGrid(4, 4), RectGrid(5, 7), TriRectGrid(2, 3),
         TriRectGrid(3, 4), TriRectGrid(4, 4), TriRectGrid(5, 6), TriRectGrid(6, 7)],
    )
    def test_tree_edge_kinds(self, spec):
        # Every column, and n - 1 edges linking them: a middle row, or for a
        # triangulated grid with even m the slant edges across the middle.
        res = optimal_construction(spec)
        kinds = res.family_graph.meta["edge_kinds"]
        link = "slant" if isinstance(spec, TriRectGrid) and spec.m % 2 == 0 else "horizontal"
        counts = Counter(kinds[e] for e in res.tree.tree_edges)
        assert counts == {"vertical": (spec.m - 1) * spec.n, link: spec.n - 1}


class TestOptimalConstruction:
    @pytest.mark.parametrize(
        "spec",
        [
            Complete(4),
            Cycle(5),
            Wheel(5),
            Diamond(5),
            CompleteBipartite(3, 3),
            CompleteMultipartite((1, 1, 2)),
            CompleteMultipartite((2, 2, 2)),
            Petersen(),
            Split(3, (frozenset({0, 1}), frozenset({1, 2}))),
            Chain(2, 3, (2, 3)),
            RectGrid(3, 4),
            TriGrid(3),
            TriRectGrid(3, 4),
        ],
    )
    def test_verified_result(self, spec):
        res = optimal_construction(spec)
        assert res.certificate.stretch == res.sigma
        assert not res.degenerate

    def test_exactness_on_small_cases(self):
        for spec in (Wheel(5), Diamond(5), CompleteBipartite(2, 3), TriGrid(2)):
            res = optimal_construction(spec)
            assert sigma_exact(make(spec).graph).sigma == res.sigma

    def test_degenerate_cases(self):
        for spec, expected in ((Complete(2), 1), (CompleteBipartite(1, 3), 1), (Complete(1), 0)):
            res = optimal_construction(spec)
            assert res.degenerate
            assert res.sigma == expected
