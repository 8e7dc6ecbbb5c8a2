"""Plane embeddings, dual graphs, face levels, and the DOT overlay."""

from __future__ import annotations

from collections import Counter

import pytest

from treestretch.families import (
    Petersen,
    RectGrid,
    TriGrid,
    TriRectGrid,
    embed_grid,
    make,
    stretch_lower_bound,
)
from treestretch.planar import embed_cube, face_levels, make_plane_graph, overlay_dot
from treestretch.graphs import DomainError, ValidationError, spanning_tree, tree_path
from treestretch.solver import enumerate_spanning_trees


TRIANGLE_FACES = [(0, 1, 2), (0, 1, 2)]

# K_4 drawn on the projective plane: three 4-cycles, every edge on two of
# them. Connected, but one face short of Euler's formula for the plane.
HEMI_CUBE_FACES = [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]


class TestMakePlaneGraph:
    def test_triangle(self):
        plane = make_plane_graph(3, TRIANGLE_FACES, outer_face=1)
        assert plane.graph.edges == ((0, 1), (0, 2), (1, 2))
        assert plane.n_faces == 2
        assert plane.bounded_faces == [0]
        assert plane.edge_faces == ((0, 1), (0, 1), (0, 1))

    def test_euler_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="Euler"):
            make_plane_graph(4, HEMI_CUBE_FACES, outer_face=0)

    def test_disconnected_rejected(self):
        # With a fifth, isolated vertex the face count meets Euler's formula.
        with pytest.raises(ValidationError, match="connected"):
            make_plane_graph(5, HEMI_CUBE_FACES, outer_face=0)

    def test_side_on_one_face_rejected(self):
        with pytest.raises(ValidationError, match="edge 0 lies on 1 face side"):
            make_plane_graph(4, [(0, 1, 2, 3), (0, 2, 1, 3)], outer_face=1)

    def test_two_vertex_face_rejected(self):
        with pytest.raises(ValidationError, match="fewer than three vertices"):
            make_plane_graph(3, [(0, 1), (0, 1, 2)], outer_face=1)

    def test_bridge_rejected(self):
        faces = [(0, 1, 2), (0, 1, 2, 3, 2)]
        with pytest.raises(ValidationError, match="bridge"):
            make_plane_graph(4, faces, outer_face=1)

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            make_plane_graph(3, [(0, 1, 3), (0, 1, 3)], outer_face=1)

    def test_repeated_consecutive_vertex_rejected(self):
        with pytest.raises(ValidationError, match="self-loop at vertex 1"):
            make_plane_graph(3, [(0, 1, 1, 2), (0, 1, 2)], outer_face=1)

    def test_outer_face_index_checked(self):
        with pytest.raises(ValidationError, match="outer face index 2"):
            make_plane_graph(3, TRIANGLE_FACES, outer_face=2)


class TestEmbeddings:
    @pytest.mark.parametrize(
        "m,n", [(m, n) for m in range(2, 7) for n in range(m, 7)]
    )
    def test_rect_face_count(self, m, n):
        plane = embed_grid(RectGrid(m, n))
        assert len(plane.bounded_faces) == (m - 1) * (n - 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_tri_face_count(self, n):
        plane = embed_grid(TriGrid(n))
        assert len(plane.bounded_faces) == n * n

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (3, 3), (3, 5), (4, 4), (5, 5)])
    def test_tri_rect_face_count(self, m, n):
        plane = embed_grid(TriRectGrid(m, n))
        assert len(plane.bounded_faces) == 2 * (m - 1) * (n - 1)

    def test_cube_face_count(self):
        plane = embed_cube()
        assert plane.graph.n == 8 and plane.graph.m == 12
        assert len(plane.bounded_faces) == 5

    def test_outer_face_is_last(self):
        for spec in (RectGrid(2, 3), TriGrid(2), TriRectGrid(2, 2)):
            plane = embed_grid(spec)
            assert plane.outer_face == plane.n_faces - 1


class TestFaceLevels:
    def test_rect_4_5_frozen(self):
        plane = embed_grid(RectGrid(4, 5))
        levels = face_levels(plane)
        bounded = sorted(levels[f] for f in plane.bounded_faces)
        assert bounded == [1] * 10 + [2] * 2
        assert max(levels) == 2
        assert levels[plane.outer_face] == 0

    def test_tri_2_frozen(self):
        plane = embed_grid(TriGrid(2))
        levels = face_levels(plane)
        assert sorted(levels[f] for f in plane.bounded_faces) == [1, 1, 1, 2]

    def test_tri_4_frozen(self):
        plane = embed_grid(TriGrid(4))
        levels = face_levels(plane)
        counts = Counter(levels[f] for f in plane.bounded_faces)
        assert counts == Counter({1: 9, 2: 6, 3: 1})
        assert max(levels) == 3

    def test_cube_frozen(self):
        plane = embed_cube()
        levels = face_levels(plane)
        assert sorted(levels[f] for f in plane.bounded_faces) == [1, 1, 1, 1, 2]

    def test_predecessor_points_one_level_down(self):
        plane = embed_grid(RectGrid(3, 4))
        levels = face_levels(plane)
        for f in plane.bounded_faces:
            below = [levels[other] for _, other in plane.face_adjacency[f]]
            assert min(below) == levels[f] - 1


class TestLambdaFormulas:
    def test_rect(self):
        for m in range(2, 8):
            for n in range(m, 8):
                spec = RectGrid(m, n)
                assert max(face_levels(embed_grid(spec))) == m // 2

    def test_tri(self):
        for n in range(1, 9):
            spec = TriGrid(n)
            expected = (2 * n + 2) // 3
            assert max(face_levels(embed_grid(spec))) == expected

    def test_tri_rect(self):
        for m in range(2, 7):
            for n in range(m, 7):
                spec = TriRectGrid(m, n)
                assert max(face_levels(embed_grid(spec))) == m - 1


class TestStretchLowerBound:
    def test_rect(self):
        assert stretch_lower_bound(make(RectGrid(4, 5))) == 5

    def test_tri(self):
        assert stretch_lower_bound(make(TriGrid(4))) == 4

    def test_tri_rect(self):
        assert stretch_lower_bound(make(TriRectGrid(3, 4))) == 3

    def test_non_grid_family_refused(self):
        with pytest.raises(DomainError):
            stretch_lower_bound(make(Petersen()))


class TestDualGraph:
    def test_cube_dual_is_octahedron(self):
        plane = embed_cube()
        assert plane.n_faces == 6
        degrees = [len(plane.face_adjacency[f]) for f in range(6)]
        assert degrees == [4] * 6
        neighbor_sets = [{other for _, other in plane.face_adjacency[f]} for f in range(6)]
        for f in range(6):
            assert f not in neighbor_sets[f]
            assert len(neighbor_sets[f]) == 4  # opposite face missing, no multi-edges

    def test_face_adjacency_follows_edge_faces_in_edge_order(self):
        for plane in (embed_grid(RectGrid(3, 4)), embed_grid(TriGrid(3))):
            for f, pairs in enumerate(plane.face_adjacency):
                edges = [e for e, _ in pairs]
                assert edges == sorted(edges)
                assert all({f, other} == set(plane.edge_faces[e]) for e, other in pairs)
            assert sum(len(pairs) for pairs in plane.face_adjacency) == 2 * plane.graph.m


class TestDuality:
    def test_cycle_equals_cut_exhaustive_small(self):
        """One square: every edge joins the two faces, so each cut is all four
        edges, and so is each fundamental cycle."""
        plane = embed_grid(RectGrid(2, 2))
        g = plane.graph
        assert set(plane.edge_faces) == {(0, 1)}

        trees = []
        enumerate_spanning_trees(g, visitor=lambda t: trees.append(t))
        assert len(trees) == 4
        for edge_set in trees:
            t = spanning_tree(g, edge_set)
            (e,) = set(range(g.m)) - t.tree_edges
            assert set(tree_path(t, *g.edges[e])) == set(range(4))


class TestOverlayDot:
    def test_contains_both_layers(self):
        plane = embed_grid(RectGrid(2, 2))
        text = overlay_dot(plane)
        assert "v0" in text and "f0" in text
        assert "style=dotted" in text
