"""Acceptance suite: one test per advertised guarantee, exact values pinned.

Each test is self-contained and named for the guarantee it checks, so the
verbose pytest report reads as a pass/fail line per criterion.
"""

from __future__ import annotations

import random
import time
from itertools import combinations_with_replacement, permutations

from treestretch.convex import construct_tree
from treestretch.families import (
    Complete,
    CompleteBipartite,
    CompleteMultipartite,
    Cycle,
    Diamond,
    Petersen,
    RectGrid,
    Split,
    TriGrid,
    TriRectGrid,
    Wheel,
    classify_split,
    embed_grid,
    make,
    optimal_construction,
    petersen_tree,
    random_convex_spec,
    random_glued_blocks,
    sigma_formula,
    split_tree,
)
from treestretch.graphs import (
    blocks,
    girth,
    induced_subgraph,
    spanning_tree,
    stretch,
    tree_distance,
    tree_path,
)
from treestretch.planar import embed_cube, face_levels
from treestretch.solver import (
    count_spanning_trees_kirchhoff,
    enumerate_spanning_trees,
    sigma_exact,
)


def test_criterion_01_petersen_sigma_4_over_2000_trees():
    start = time.perf_counter()
    g = make(Petersen()).graph
    res = sigma_exact(g, use_pruning=False)
    assert res.sigma == 4
    assert res.trees_enumerated == 2000
    assert count_spanning_trees_kirchhoff(g) == 2000
    assert stretch(g, petersen_tree(g)).stretch == 4
    assert time.perf_counter() - start < 5.0


def test_criterion_02_small_family_table_matches_girth_bound():
    start = time.perf_counter()
    specs = (
        [Complete(n) for n in range(3, 7)]
        + [Cycle(n) for n in range(3, 9)]
        + [Wheel(n) for n in range(4, 8)]
        + [Diamond(n) for n in range(4, 7)]
        + [CompleteBipartite(m, n) for m in range(2, 5) for n in range(2, 5)]
        + [RectGrid(2, 3), RectGrid(3, 3), RectGrid(3, 4)]  # P_3 x P_n, n = 2..4
    )
    for spec in specs:
        res = optimal_construction(spec)
        g = make(spec).graph
        ex = sigma_exact(g)
        floor = girth(g) - 1
        assert res.certificate.stretch == res.sigma, spec
        assert ex.sigma == res.sigma, spec
        assert floor == res.sigma, spec
    assert time.perf_counter() - start < 60.0


def test_criterion_03_three_part_multipartite_dichotomy():
    vectors = [
        parts
        for parts in combinations_with_replacement(range(1, 4), 3)
        if sum(parts) <= 8
    ]
    assert len(vectors) == 9
    for parts in vectors:
        spec = CompleteMultipartite(parts)
        g = make(spec).graph
        expected = 2 if parts[0] == 1 else 3
        assert sigma_formula(spec) == expected
        assert sigma_exact(g).sigma == expected
        if parts[0] >= 2:
            def check(edge_set):
                # n - 1 distinct edges that reach every vertex form a spanning
                # tree; a non-tree edge whose ends share no tree neighbour has
                # tree distance at least 3.
                assert len(set(edge_set)) == g.n - 1
                adj = [set() for _ in range(g.n)]
                for i in edge_set:
                    u, v = g.edges[i]
                    adj[u].add(v)
                    adj[v].add(u)
                seen, stack = {0}, [0]
                while stack:
                    fresh = adj[stack.pop()] - seen
                    seen |= fresh
                    stack += fresh
                assert len(seen) == g.n
                assert any(v not in adj[u] and not adj[u] & adj[v] for u, v in g.edges)

            enumerate_spanning_trees(g, visitor=check)


def canonical_split_pattern(k, sets):
    """Least relabeling of the clique side, for deduplication."""
    best = None
    for perm in permutations(range(k)):
        mapped = tuple(sorted(tuple(sorted(perm[x] for x in s)) for s in sets))
        if best is None or mapped < best:
            best = mapped
    return best


def test_criterion_04_exhaustive_split_dichotomy():
    start = time.perf_counter()
    seen = set()
    checked = 0
    skipped_trees = 0
    for k in range(1, 5):
        subsets = []
        for size in range(1, k + 1):
            subsets.extend(
                tuple(sorted(c)) for c in combinations_with_replacement(range(k), size)
                if len(set(c)) == size
            )
        subsets = sorted(set(subsets))
        for ny in range(0, 4):
            for pattern in combinations_with_replacement(subsets, ny):
                canon = (k, canonical_split_pattern(k, pattern))
                if canon in seen:
                    continue
                seen.add(canon)
                fg = make(Split(k, canon[1]))
                g = fg.graph
                clique = list(range(k))
                independent = list(range(k, k + len(canon[1])))
                if g.m == g.n - 1:
                    skipped_trees += 1  # outside the 2-or-3 dichotomy
                    continue
                cls = classify_split(g, clique, independent)
                assert cls.sigma == sigma_exact(g).sigma, canon
                t = split_tree(g, clique, independent)
                assert stretch(g, t).stretch == cls.sigma, canon
                checked += 1
    assert checked == 130
    assert skipped_trees == 10
    assert time.perf_counter() - start < 600.0


def test_criterion_05_seeded_convex_instances_reach_three():
    rng = random.Random(2024)
    for _ in range(200):
        spec = random_convex_spec(rng, max_x=5, max_y=5, require_cycle=True)
        inst = spec.instance
        g = inst.graph
        tree = construct_tree(inst)
        assert stretch(g, tree).stretch == 3
        for e in sorted(set(range(g.m)) - tree.tree_edges):
            assert tree_distance(tree, *g.edges[e]) == 3
        assert sigma_exact(g).sigma == 3


def test_criterion_06_rect_grid_formula_and_levels():
    for m in range(2, 9):
        for n in range(m, 9):
            t = optimal_construction(RectGrid(m, n)).tree
            assert stretch(t.host, t).stretch == 2 * (m // 2) + 1
    for m, n in [(2, 2), (2, 3), (3, 3), (3, 4), (2, 4)]:
        spec = RectGrid(m, n)
        assert sigma_exact(make(spec).graph).sigma == 2 * (m // 2) + 1
    for m in range(2, 11):
        for n in range(m, 11):
            spec = RectGrid(m, n)
            assert max(face_levels(embed_grid(spec))) == m // 2


def test_criterion_07_tri_grid_formula_and_levels():
    for n in range(1, 9):
        t = optimal_construction(TriGrid(n)).tree
        assert stretch(t.host, t).stretch == (2 * n + 2) // 3 + 1
    for n in range(1, 4):
        spec = TriGrid(n)
        assert sigma_exact(make(spec).graph).sigma == (2 * n + 2) // 3 + 1
    for n in range(1, 13):
        spec = TriGrid(n)
        assert max(face_levels(embed_grid(spec))) == (2 * n + 2) // 3


def test_criterion_08_tri_rect_grid_formula_and_levels():
    for m in range(2, 9):
        for n in range(m, 9):
            t = optimal_construction(TriRectGrid(m, n)).tree
            assert stretch(t.host, t).stretch == m
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        spec = TriRectGrid(m, n)
        assert sigma_exact(make(spec).graph).sigma == m
    for m in range(2, 11):
        for n in range(m, 11):
            spec = TriRectGrid(m, n)
            assert max(face_levels(embed_grid(spec))) == m - 1


def faces_reached(plane, dual_edges, skip=None):
    """Faces reached from the outer face over ``dual_edges`` other than ``skip``."""
    seen, stack = {plane.outer_face}, [plane.outer_face]
    while stack:
        for e, other in plane.face_adjacency[stack.pop()]:
            if e in dual_edges and e != skip and other not in seen:
                seen.add(other)
                stack.append(other)
    return seen


def test_criterion_09_cycle_cut_duality_exhaustive():
    """The cotree spans the dual as a tree, and each cotree edge's fundamental
    cycle is its fundamental cut in that dual tree."""
    planes = [
        embed_grid(RectGrid(2, 3)),
        embed_grid(RectGrid(3, 3)),
        embed_grid(TriGrid(2)),
        embed_cube(),
    ]
    expected_counts = [15, 192, 54, 384]
    for plane, expected in zip(planes, expected_counts):
        g = plane.graph
        trees = []
        count = enumerate_spanning_trees(g, visitor=lambda t: trees.append(t))
        assert count == expected
        for edge_set in trees:
            t = spanning_tree(g, edge_set)
            cotree = set(range(g.m)) - t.tree_edges
            assert len(cotree) == plane.n_faces - 1
            assert len(faces_reached(plane, cotree)) == plane.n_faces
            for e in cotree:
                path = tree_path(t, *g.edges[e])
                cycle = {e} | {g.edge_index[min(p), max(p)] for p in zip(path, path[1:])}
                side = faces_reached(plane, cotree, skip=e)
                cut = {k for k, faces in enumerate(plane.edge_faces) if len(side & {*faces}) == 1}
                assert cycle == cut


def test_criterion_10_block_decomposition_localizes_stretch():
    rng = random.Random(1234)
    for _ in range(50):
        g = random_glued_blocks(rng)
        whole = sigma_exact(g).sigma
        per_block = []
        for block in blocks(g).blocks:
            sub, _ = induced_subgraph(g, block)
            per_block.append(sigma_exact(sub).sigma)
        assert whole == max(per_block)
