"""Exact solver: enumeration, Kirchhoff counting, pruning, and the node budget."""

from __future__ import annotations

import math
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestretch.families import (
    Complete,
    CompleteMultipartite,
    Petersen,
    RectGrid,
    TriGrid,
    TriRectGrid,
    Wheel,
    make,
)
from treestretch.graphs import (
    DomainError,
    ResourceLimitError,
    ValidationError,
    girth,
    is_connected,
    is_spanning_tree,
    make_graph,
    relabel_graph,
    spanning_tree,
    stretch,
)
from treestretch.solver import (
    DEFAULT_MAX_NODES,
    _leaf_rule_refutes,
    _TreeSearch,
    _triangle_rule_refutes,
    count_spanning_trees_kirchhoff,
    enumerate_spanning_trees,
    lower_bound_girth,
    refutes_tree_2_spanner,
    sigma_exact,
)


def cycle_graph(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(m, n):
    return make_graph(m + n, [(u, m + v) for u in range(m) for v in range(n)])


def petersen_graph():
    return make_graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )


def rect_grid(m, n):
    def vid(i, j):
        return i * n + j

    edges = [(vid(i, j), vid(i, j + 1)) for i in range(m) for j in range(n - 1)]
    edges += [(vid(i, j), vid(i + 1, j)) for i in range(m - 1) for j in range(n)]
    return make_graph(m * n, edges)


# Counts verified against an independent Laplacian-determinant computation.
FROZEN_TREE_COUNTS = {
    "K4": (complete_graph(4), 16),
    "K5": (complete_graph(5), 125),
    "K6": (complete_graph(6), 1296),
    "C5": (cycle_graph(5), 5),
    "K33": (complete_bipartite(3, 3), 81),
    "petersen": (petersen_graph(), 2000),
    "rect22": (rect_grid(2, 2), 4),
    "rect23": (rect_grid(2, 3), 15),
    "rect33": (rect_grid(3, 3), 192),
    "rect34": (rect_grid(3, 4), 2415),
    "rect44": (rect_grid(4, 4), 100352),
}


class TestCounting:
    @pytest.mark.parametrize("name", sorted(FROZEN_TREE_COUNTS))
    def test_kirchhoff_frozen(self, name):
        g, expected = FROZEN_TREE_COUNTS[name]
        assert count_spanning_trees_kirchhoff(g) == expected

    @pytest.mark.parametrize(
        "name", ["K4", "K5", "C5", "K33", "petersen", "rect22", "rect23", "rect33"]
    )
    def test_enumeration_matches_kirchhoff(self, name):
        g, expected = FROZEN_TREE_COUNTS[name]
        assert enumerate_spanning_trees(g) == expected

    @pytest.mark.parametrize(
        "spec, count",
        [
            (Complete(5), 125),
            (Petersen(), 2000),
            (RectGrid(3, 3), 192),
            (Wheel(6), 121),
            (CompleteMultipartite((2, 2, 2)), 384),
        ],
        ids=["K5", "petersen", "rect33", "W6", "K222"],
    )
    def test_enumeration_order_matches_combinations(self, spec, count):
        # The oracle: every (n-1)-subset of edge indices in lexicographic order,
        # kept when it is a spanning tree.
        g = make(spec).graph
        expected = [
            c for c in combinations(range(g.m), g.n - 1) if is_spanning_tree(g, c)[0]
        ]
        visited = []
        assert enumerate_spanning_trees(g, visitor=visited.append) == count
        assert visited == expected
        result = sigma_exact(g, use_pruning=False)
        first_optimum = next(
            c for c in expected if stretch(g, spanning_tree(g, c)).stretch == result.sigma
        )
        assert sorted(result.optimal_tree.tree_edges) == list(first_optimum)

    def test_disconnected_rejected(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValidationError):
            count_spanning_trees_kirchhoff(g)
        with pytest.raises(ValidationError):
            enumerate_spanning_trees(g)

    def test_single_vertex(self):
        g = make_graph(1, [])
        assert count_spanning_trees_kirchhoff(g) == 1

    def test_exclusion_guard_prunes_dead_branches(self):
        # Dead branches find no tree, so only the time shows a lost guard: without
        # it C_20 takes seconds instead of a millisecond, about 4x more per two vertices.
        g = cycle_graph(22)
        start = time.perf_counter()
        assert enumerate_spanning_trees(g) == 22
        assert sigma_exact(g, use_pruning=False).trees_enumerated == 22
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_kirchhoff_matches_enumeration_random(self, data):
        n = data.draw(st.integers(2, 6))
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(
            st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))
        )
        g = make_graph(n, chosen)
        if not is_connected(g):
            return
        assert enumerate_spanning_trees(g) == count_spanning_trees_kirchhoff(g)


class TestLowerBoundGirth:
    def test_values(self):
        assert lower_bound_girth(complete_graph(4)) == 2
        assert lower_bound_girth(cycle_graph(7)) == 6
        assert lower_bound_girth(petersen_graph()) == 4

    def test_forest_refused(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(DomainError):
            lower_bound_girth(g)


class TestSigmaExact:
    def test_cycle(self):
        for n in range(3, 9):
            res = sigma_exact(cycle_graph(n))
            assert res.sigma == n - 1

    def test_complete(self):
        res = sigma_exact(complete_graph(5))
        assert res.sigma == 2
        assert stretch(complete_graph(5), res.optimal_tree).stretch == 2

    def test_girth_floor_stops_early(self):
        res = sigma_exact(complete_graph(6))
        assert res.sigma == 2
        assert res.lower_bound_used == 2
        assert res.trees_enumerated < 1296

    def test_tree_input_shortcut(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        res = sigma_exact(g)
        assert res.sigma == 1
        assert res.trees_enumerated == 1
        assert res.optimal_tree.tree_edges == frozenset(range(3))

    def test_single_vertex(self):
        res = sigma_exact(make_graph(1, []))
        assert res.sigma == 0

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            sigma_exact(make_graph(3, [(0, 1)]))

    # A search that takes r.nodes steps succeeds with exactly that budget, and one
    # step less stops it at the step it may not take.
    @pytest.mark.parametrize(
        "spec, use_pruning",
        [
            pytest.param(Petersen(), True, id="Petersen"),
            pytest.param(Petersen(), False, id="Petersen-unpruned"),
            pytest.param(RectGrid(4, 4), True, id="rect(4,4)"),
        ],
    )
    def test_budget_is_exact(self, spec, use_pruning):
        g = make(spec).graph
        r = sigma_exact(g, use_pruning=use_pruning)
        assert sigma_exact(g, use_pruning=use_pruning, max_nodes=r.nodes) == r
        with pytest.raises(ResourceLimitError, match=f"budget of {r.nodes - 1} exceeded") as exc:
            sigma_exact(g, use_pruning=use_pruning, max_nodes=r.nodes - 1)
        assert exc.value.nodes == r.nodes - 1

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_takes_no_step(self, budget):
        with pytest.raises(ResourceLimitError) as exc:
            sigma_exact(complete_graph(4), max_nodes=budget)
        assert exc.value.nodes == 0

    def test_budget_bounds_a_search_that_finds_few_trees(self):
        # The pruned search on tri(5) reports a handful of trees in millions of steps.
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as exc:
            sigma_exact(make(TriGrid(5)).graph, max_nodes=10)
        assert exc.value.nodes == 10
        assert time.perf_counter() - start < 1.0

    def test_pruned_and_unpruned_agree(self):
        cases = [
            cycle_graph(6),
            complete_bipartite(2, 3),
            petersen_graph(),
            rect_grid(2, 3),
            make_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
        ]
        for g in cases:
            fast = sigma_exact(g)
            slow = sigma_exact(g, use_pruning=False)
            assert fast.sigma == slow.sigma
            assert fast.optimal_tree.tree_edges == slow.optimal_tree.tree_edges
            assert slow.pruned is False
            assert fast.trees_enumerated <= slow.trees_enumerated

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pruned_matches_unpruned_random(self, data):
        n = data.draw(st.integers(4, 8))
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        # One coin per vertex pair gives graphs of every density up to K_n.
        kept = data.draw(st.lists(st.booleans(), min_size=len(all_pairs), max_size=len(all_pairs)))
        g = make_graph(n, [pair for pair, keep in zip(all_pairs, kept) if keep])
        if not is_connected(g) or g.m == n - 1:
            return
        total = count_spanning_trees_kirchhoff(g)
        if total > 20_000:
            return
        # The unpruned walk gives every tree's stretch in the search order. The pruned
        # search reports exactly the trees that beat every earlier one, up to the floor.
        stretches = list(_TreeSearch(g, DEFAULT_MAX_NODES).trees())
        floor = lower_bound_girth(g)
        records, best = 0, math.inf
        for s in stretches:
            if s < best:
                records, best = records + 1, s
                if best <= floor:
                    break
        fast = sigma_exact(g)
        slow = sigma_exact(g, use_pruning=False)
        assert fast.sigma == slow.sigma == min(stretches)
        assert fast.optimal_tree.tree_edges == slow.optimal_tree.tree_edges
        assert slow.trees_enumerated == total
        assert fast.trees_enumerated == records

    # Search nodes (steps of the search loop that reach an edge or a finished tree)
    # of the pruned solve on canonical family graphs: machine-independent, so any
    # change to the bounds shows here.
    NODES = {
        "Petersen": (Petersen(), 4, 21),
        "K_{3,3,3}": (CompleteMultipartite((3, 3, 3)), 3, 14),
        "K_{4,4,4}": (CompleteMultipartite((4, 4, 4)), 3, 26),
        "K_{8,20,24,28}": (CompleteMultipartite((8, 20, 24, 28)), 3, 506),
        "rect(3,4)": (RectGrid(3, 4), 3, 194),
        "rect(3,5)": (RectGrid(3, 5), 3, 656),
        "rect(4,4)": (RectGrid(4, 4), 5, 1_191),
        "rect(3,6)": (RectGrid(3, 6), 3, 2_050),
        "trirect(3,4)": (TriRectGrid(3, 4), 3, 925),
        "tri(4)": (TriGrid(4), 4, 9_859),
        "rect(4,5)": (RectGrid(4, 5), 5, 8_469),
    }

    @pytest.mark.parametrize("name", list(NODES))
    def test_search_nodes(self, name):
        spec, sigma, nodes = self.NODES[name]
        res = sigma_exact(make(spec).graph)
        assert (res.sigma, res.nodes) == (sigma, nodes)

    # The same search on shuffled vertex labels, which reorder the edge list: (spec,
    # seed of the random.Random that shuffles the labels, sigma, nodes).
    NODES_RELABELLED = {
        "K_{3,3,3}~0": (CompleteMultipartite((3, 3, 3)), 0, 3, 12),
        "K_{3,3,3}~1": (CompleteMultipartite((3, 3, 3)), 1, 3, 9),
        "K_{3,3,3}~2": (CompleteMultipartite((3, 3, 3)), 2, 3, 17),
        "rect(4,4)~0": (RectGrid(4, 4), 0, 5, 3_155),
        "rect(4,4)~1": (RectGrid(4, 4), 1, 5, 2_228),
    }

    @pytest.mark.parametrize("name", list(NODES_RELABELLED))
    def test_search_nodes_relabelled(self, name):
        spec, seed, sigma, nodes = self.NODES_RELABELLED[name]
        g = make(spec).graph
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        res = sigma_exact(relabel_graph(g, perm))
        assert (res.sigma, res.nodes) == (sigma, nodes)

    def test_optimal_tree_attains_sigma(self):
        g = petersen_graph()
        res = sigma_exact(g)
        assert res.sigma == 4
        assert stretch(g, res.optimal_tree).stretch == 4


class TestTree2SpannerRefutation:
    def test_sound_on_every_small_graph_with_a_triangle(self):
        # Every connected labelled graph of girth 3 on at most 5 vertices: 541 graphs.
        seen = 0
        for n in range(3, 6):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                g = make_graph(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
                if g.m < n or not is_connected(g) or girth(g) != 3:
                    continue
                seen += 1
                refuted = refutes_tree_2_spanner(g)
                slow = sigma_exact(g, use_pruning=False)
                fast = sigma_exact(g)
                assert slow.sigma >= 3 or not refuted
                assert fast.no_tree_2_spanner == refuted
                assert fast.lower_bound_used == 2
                assert (fast.sigma, fast.optimal_tree.tree_edges) == (
                    slow.sigma,
                    slow.optimal_tree.tree_edges,
                )
        assert seen == 541

    def test_leaf_rule_alone_refutes_octahedron(self):
        # K_{2,2,2}: every edge lies in a triangle, and no vertex's closed
        # neighbourhood lies in a neighbour's, so no vertex can be a leaf.
        g = make(CompleteMultipartite((2, 2, 2))).graph
        assert _leaf_rule_refutes(g)
        assert not _triangle_rule_refutes(g)
        assert refutes_tree_2_spanner(g)
        res = sigma_exact(g)
        assert (res.sigma, res.no_tree_2_spanner, res.lower_bound_used) == (3, True, 2)

    def test_triangle_rule_alone_refutes_triangle_glued_to_square(self):
        # Triangle 0-1-2 and 4-cycle 2-3-4-5 share vertex 2. Vertices 0 and 1
        # dominate each other, but edge 2-3 lies in no triangle and on a cycle.
        g = make_graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
        assert not _leaf_rule_refutes(g)
        assert _triangle_rule_refutes(g)
        assert sigma_exact(g, use_pruning=False).sigma == 3

    @pytest.mark.parametrize(
        "g",
        [
            make(Complete(6)).graph,
            make(Wheel(7)).graph,
            # The square of the path P_6: the path is a tree of stretch 2, and no
            # vertex is universal.
            make_graph(6, [(i, j) for i in range(6) for j in (i + 1, i + 2) if j < 6]),
        ],
        ids=["K6", "W7", "P6^2"],
    )
    def test_tree_2_spanners_not_refuted(self, g):
        assert not refutes_tree_2_spanner(g)
        res = sigma_exact(g)
        assert (res.sigma, res.no_tree_2_spanner) == (2, False)

    def test_rules_are_incomplete(self):
        # trirect(3,4) has stretch 3 yet passes both necessary conditions.
        g = make(TriRectGrid(3, 4)).graph
        assert not refutes_tree_2_spanner(g)
        res = sigma_exact(g)
        assert (res.sigma, res.no_tree_2_spanner) == (3, False)

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            refutes_tree_2_spanner(make_graph(4, [(0, 1), (2, 3)]))
