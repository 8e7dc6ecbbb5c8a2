"""Closed-form stretch values and the trees that attain them."""

from __future__ import annotations

import pytest

from treestretch.constructions import (
    _tri_crossing,
    classify_split,
    double_star_tree,
    multipartite_tree,
    optimal_construction,
    petersen_tree,
    rect_grid_tree,
    sigma_formula,
    split_tree,
    star_tree,
    tri_grid_tree,
    tri_rect_grid_tree,
)
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
    make,
    make_generalized_convex,
    make_split,
)
from treestretch.graphs import (
    DomainError,
    ParameterError,
    ValidationError,
    make_graph,
    stretch,
)
from treestretch.planar import embed_grid, face_levels
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
        inst = make_generalized_convex(
            5,
            [(0, 1), (1, 2), (2, 3), (3, 4)],
            [[0, 1, 2], [1, 2, 3], [2, 3, 4]],
        )
        assert sigma_formula(GeneralizedConvex(inst)) == 3

    def test_convex_instance_degenerate(self):
        inst = make_generalized_convex(2, [(0, 1)], [[0, 1]])
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
        g = make(spec).graph
        t = multipartite_tree(spec)
        assert stretch(g, t).stretch == 2

    def test_double_star_otherwise(self):
        spec = CompleteMultipartite((2, 2, 3))
        g = make(spec).graph
        t = multipartite_tree(spec)
        assert stretch(g, t).stretch == 3

    def test_requires_three_parts(self):
        with pytest.raises(ParameterError):
            multipartite_tree(CompleteMultipartite((2, 2)))

    @pytest.mark.parametrize(
        "parts,center,other",
        [((2, 1, 2), 2, None), ((3, 2, 2), 3, 5), ((3, 3, 2, 3), 6, 0), ((4, 2, 3), 4, 6)],
    )
    def test_any_part_order(self, parts, center, other):
        spec = CompleteMultipartite(parts)
        g = make(spec).graph
        t = multipartite_tree(spec)
        assert stretch(g, t).stretch == sigma_formula(spec) == (2 if other is None else 3)
        assert t.adjacency[center] == tuple(v for v in range(g.n) if g.has_edge(center, v))
        if other is not None:
            assert center in t.adjacency[other]


class TestSplitClassification:
    def test_sigma_two_example(self):
        fg = make_split(3, [{0, 1}, {1, 2}])
        clique, independent = [0, 1, 2], [3, 4]
        cls = classify_split(fg.graph, clique, independent)
        assert cls.sigma == 2
        assert cls.witness == 1
        assert cls.refutations == {}
        t = split_tree(fg.graph, clique, independent)
        assert stretch(fg.graph, t).stretch == 2

    def test_sigma_three_example(self):
        fg = make_split(3, [{0, 1}, {1, 2}, {0, 2}])
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
        fg = make_split(3, [])
        cls = classify_split(fg.graph, [0, 1, 2], [])
        assert cls.sigma == 2

    def test_pendants_do_not_force_three(self):
        fg = make_split(3, [{0}, {0}, {1}])
        cls = classify_split(fg.graph, [0, 1, 2], [3, 4, 5])
        assert cls.sigma == 2
        t = split_tree(fg.graph, [0, 1, 2], [3, 4, 5])
        assert stretch(fg.graph, t).stretch == 2

    def test_tree_refused(self):
        fg = make_split(2, [{0}])
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
            fg = make_split(k, adjacency)
            clique = list(range(k))
            independent = list(range(k, k + len(adjacency)))
            cls = classify_split(fg.graph, clique, independent)
            assert cls.sigma == sigma_exact(fg.graph).sigma
            t = split_tree(fg.graph, clique, independent)
            assert stretch(fg.graph, t).stretch == cls.sigma


class TestPetersen:
    def test_tree_attains_four(self):
        t = petersen_tree()
        g = make(Petersen()).graph
        assert stretch(g, t).stretch == 4


class TestGridTrees:
    def test_rect_middle_row(self):
        spec = RectGrid(3, 3)
        t = rect_grid_tree(spec)
        g = make(spec).graph
        assert stretch(g, t).stretch == 3
        # row 1 is the horizontal spine: edges (3,4) and (4,5)
        assert g.edge_index[(3, 4)] in t.tree_edges
        assert g.edge_index[(4, 5)] in t.tree_edges

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 5), (3, 4), (4, 5), (5, 6), (6, 6)])
    def test_rect_matches_formula(self, m, n):
        spec = RectGrid(m, n)
        g = make(spec).graph
        assert stretch(g, rect_grid_tree(spec)).stretch == 2 * (m // 2) + 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_tri_matches_formula(self, n):
        spec = TriGrid(n)
        g = make(spec).graph
        assert stretch(g, tri_grid_tree(spec)).stretch == (2 * n + 2) // 3 + 1

    def test_tri_crossing_is_corner_of_first_deepest_face(self):
        for n in range(1, 41):
            plane = embed_grid(TriGrid(n))
            levels = face_levels(plane)
            x, y, kind = plane.labels[levels.level.index(levels.lambda_max)]
            corner = (x, y) if kind == "up" else (x + 1, y + 1)
            assert corner == (_tri_crossing(n), _tri_crossing(n)), n

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (3, 3), (3, 5), (4, 4), (5, 6)])
    def test_tri_rect_matches_formula(self, m, n):
        spec = TriRectGrid(m, n)
        g = make(spec).graph
        assert stretch(g, tri_rect_grid_tree(spec)).stretch == m


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
