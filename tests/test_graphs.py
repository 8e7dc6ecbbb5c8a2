"""Core graph type, spanning trees, stretch, girth, and blocks."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treestretch.graphs import (
    ParameterError,
    ValidationError,
    blocks,
    girth,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    is_connected,
    is_spanning_tree,
    make_graph,
    relabel_graph,
    spanning_tree,
    spanning_tree_from_pairs,
    stretch,
    to_dot,
    tree_distance,
    tree_path,
)


def path_graph(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestMakeGraph:
    def test_canonical_form(self):
        g = make_graph(4, [(3, 1), (0, 2), (2, 1)])
        assert g.edges == ((0, 2), (1, 2), (1, 3))
        assert g.m == 3
        assert g.edge_index[(1, 3)] == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            make_graph(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValidationError):
            make_graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            make_graph(3, [(0, 3)])
        with pytest.raises(ParameterError):
            make_graph(0, [])

    def test_adjacency_and_degree(self):
        g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.adjacency[0] == (1, 2, 3)
        assert g.degree(0) == 3
        assert g.degree(2) == 1
        assert g.has_edge(0, 3) and g.has_edge(3, 0)
        assert not g.has_edge(1, 2)
        assert not g.has_edge(1, 1)

    def test_connectivity(self):
        assert is_connected(path_graph(5))
        assert not is_connected(make_graph(4, [(0, 1), (2, 3)]))
        assert is_connected(make_graph(1, []))

    def test_relabel(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        h = relabel_graph(g, [2, 0, 1])  # old 0 -> new 2, old 1 -> new 0
        assert h.edges == ((0, 1), (0, 2))

    def test_induced_subgraph(self):
        g = complete_graph(5)
        sub, keep = induced_subgraph(g, [1, 3, 4])
        assert keep == [1, 3, 4]
        assert sub.n == 3 and sub.m == 3


class TestSpanningTree:
    def test_valid_tree(self):
        g = cycle_graph(4)
        t = spanning_tree(g, [0, 1, 2])
        assert t.tree_edges == frozenset({0, 1, 2})
        assert sorted(set(range(g.m)) - t.tree_edges) == [3]

    def test_wrong_count(self):
        g = cycle_graph(4)
        ok, reason = is_spanning_tree(g, [0, 1])
        assert not ok and "3" in reason

    def test_cycle_rejected(self):
        g = make_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        ok, reason = is_spanning_tree(g, [0, 1, 2])
        assert not ok

    def test_repeated_index(self):
        g = cycle_graph(4)
        ok, reason = is_spanning_tree(g, [0, 0, 1])
        assert not ok and "repeated" in reason

    def test_out_of_range_index(self):
        g = cycle_graph(4)
        ok, reason = is_spanning_tree(g, [0, 1, 9])
        assert not ok

    def test_single_vertex(self):
        g = make_graph(1, [])
        ok, reason = is_spanning_tree(g, [])
        assert ok and reason is None
        t = spanning_tree(g, [])
        assert t.tree_edges == frozenset()

    def test_from_pairs(self):
        g = cycle_graph(5)
        t = spanning_tree_from_pairs(g, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert sorted(set(range(g.m)) - t.tree_edges) == [g.edge_index[(0, 4)]]
        with pytest.raises(ValidationError):
            spanning_tree_from_pairs(g, [(0, 2), (1, 2), (2, 3), (3, 4)])

    def test_edge_pairs_sorted(self):
        g = cycle_graph(4)
        t = spanning_tree(g, [0, 1, 2])
        assert t.edge_pairs() == [(0, 1), (0, 3), (1, 2)]


class TestTreeMetrics:
    def test_distance_and_path(self):
        g = path_graph(6)
        t = spanning_tree(g, range(5))
        assert tree_distance(t, 0, 5) == 5
        assert tree_path(t, 2, 4) == (2, 3, 4)
        assert tree_path(t, 4, 2) == (4, 3, 2)
        assert tree_path(t, 3, 3) == (3,)

    def test_distance_across_branches(self):
        g = make_graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
        t = spanning_tree(g, range(4))
        assert tree_distance(t, 3, 4) == 4
        assert tree_path(t, 3, 4) == (3, 1, 0, 2, 4)

    def test_stretch_cycle(self):
        g = cycle_graph(6)
        t = spanning_tree_from_pairs(g, [(i, i + 1) for i in range(5)])
        cert = stretch(g, t)
        assert cert.stretch == 5
        assert cert.witness_edge == (0, 5)
        assert len(cert.witness_path) == 6

    def test_stretch_star(self):
        g = complete_graph(5)
        t = spanning_tree_from_pairs(g, [(0, v) for v in range(1, 5)])
        assert stretch(g, t).stretch == 2

    def test_stretch_tree_graph(self):
        g = path_graph(4)
        t = spanning_tree(g, range(3))
        cert = stretch(g, t)
        assert cert.stretch == 1

    def test_stretch_witness_consistent(self):
        g = cycle_graph(7)
        t = spanning_tree_from_pairs(g, [(i, i + 1) for i in range(6)])
        cert = stretch(g, t)
        u, v = cert.witness_edge
        assert tree_distance(t, u, v) == cert.stretch


class TestFundamentalCycle:
    def test_chord_cycle(self):
        g = cycle_graph(5)
        t = spanning_tree_from_pairs(g, [(i, i + 1) for i in range(4)])
        cyc = tree_path(t, 0, 4)
        assert len(cyc) == 5
        assert set(cyc) == set(range(5))

    def test_edge_set_version(self):
        g = cycle_graph(4)
        t = spanning_tree(g, [0, 1, 2])
        (cotree,) = set(range(g.m)) - t.tree_edges
        path = tree_path(t, *g.edges[cotree])
        es = {cotree} | {g.edge_index[min(p), max(p)] for p in zip(path, path[1:])}
        assert es == {0, 1, 2, 3}

    def test_cycle_length_equals_tree_distance_plus_one(self):
        g = complete_graph(6)
        t = spanning_tree_from_pairs(g, [(0, v) for v in range(1, 6)])
        for e in sorted(set(range(g.m)) - t.tree_edges):
            u, v = g.edges[e]
            assert len(tree_path(t, u, v)) == tree_distance(t, u, v) + 1


def naive_girth(g):
    """Shortest cycle length via per-edge removal and BFS, or inf."""
    from collections import deque

    best = math.inf
    for idx, (u, v) in enumerate(g.edges):
        dist = {u: 0}
        queue = deque([u])
        while queue:
            a = queue.popleft()
            for b in g.adjacency[a]:
                if (a, b) in ((u, v), (v, u)):
                    continue
                if b not in dist:
                    dist[b] = dist[a] + 1
                    queue.append(b)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


class TestGirth:
    def test_known_values(self):
        assert girth(complete_graph(4)) == 3
        assert girth(cycle_graph(5)) == 5
        assert girth(path_graph(4)) == math.inf
        assert girth(make_graph(1, [])) == math.inf
        petersen = make_graph(
            10,
            [(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
            + [(i, 5 + i) for i in range(5)],
        )
        assert girth(petersen) == 5

    def test_bipartite(self):
        g = make_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        assert girth(g) == 4

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_naive_oracle(self, data):
        n = data.draw(st.integers(2, 14))
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(
            st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))
        )
        g = make_graph(n, chosen)
        assert girth(g) == naive_girth(g)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_forest_then_component_with_cycles(self, data):
        """Only a component after the first one, a forest, can hold a cycle."""
        size = data.draw(st.integers(1, 7))
        forest = [(v, data.draw(st.integers(0, v - 1))) for v in range(1, size)]
        forest = data.draw(st.lists(st.sampled_from(forest), unique=True)) if forest else []
        rest = data.draw(st.integers(0, 7))
        pairs = [(size + u, size + v) for u in range(rest) for v in range(u + 1, rest)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = make_graph(size + rest, forest + chosen)
        assert girth(g) == naive_girth(g)

    def test_forests_and_disconnected_graphs(self):
        forest = make_graph(9, [(0, 1), (1, 2), (1, 3), (4, 5), (6, 7), (6, 8)])
        assert girth(forest) == math.inf
        # A path on 0..4, then a 5-cycle, then a triangle far from vertex 0.
        edges = [(i, i + 1) for i in range(4)]
        edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        edges += [(10, 11), (11, 12), (10, 12)]
        assert girth(make_graph(13, edges)) == 3
        assert girth(make_graph(13, edges[:-3])) == 5

    @pytest.mark.parametrize("k", range(4, 16))
    def test_cycle_with_one_chord(self, k):
        for j in range(2, k - 1):
            g = make_graph(k, [(i, (i + 1) % k) for i in range(k)] + [(0, j)])
            assert girth(g) == naive_girth(g) == min(j, k - j) + 1

    def test_shortest_cycle_avoids_vertex_zero(self):
        # A 7-cycle through 0 sharing vertex 6 with a 4-cycle on 6, 7, 8, 9.
        edges = [(i, (i + 1) % 7) for i in range(7)]
        edges += [(6, 7), (7, 8), (8, 9), (9, 6)]
        g = make_graph(10, edges)
        assert girth(g) == naive_girth(g) == 4
        # A 9-cycle through 0 and a pentagon hanging off it by a path.
        edges = [(i, (i + 1) % 9) for i in range(9)]
        edges += [(4, 9), (9, 10)] + [(10 + i, 10 + (i + 1) % 5) for i in range(5)]
        g = make_graph(15, edges)
        assert girth(g) == naive_girth(g) == 5
        # The same graph under every rotation of the labels.
        for shift in range(15):
            h = relabel_graph(g, [(v + shift) % 15 for v in range(15)])
            assert girth(h) == 5


class TestBlocks:
    def test_two_triangles_sharing_vertex(self):
        g = make_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        dec = blocks(g)
        assert len(dec.blocks) == 2
        assert dec.cut_vertices == frozenset({2})
        assert sorted(sorted(b) for b in dec.blocks) == [[0, 1, 2], [2, 3, 4]]

    def test_path_blocks(self):
        g = path_graph(4)
        dec = blocks(g)
        assert len(dec.blocks) == 3
        assert dec.cut_vertices == frozenset({1, 2})

    def test_biconnected_graph_single_block(self):
        g = complete_graph(4)
        dec = blocks(g)
        assert len(dec.blocks) == 1
        assert dec.cut_vertices == frozenset()

    def test_bridge_plus_cycle(self):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)])
        dec = blocks(g)
        assert len(dec.blocks) == 3
        assert dec.cut_vertices == frozenset({1, 2})

    def test_block_edges_partition(self):
        g = make_graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
        dec = blocks(g)
        seen = sorted(e for es in dec.block_edges for e in es)
        assert seen == list(range(g.m))


class TestSerialization:
    def test_json_round_trip(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        data = graph_to_json(g, {"family": "cycle"})
        h, meta = graph_from_json(data)
        assert h == g
        assert meta == {"family": "cycle"}

    def test_malformed(self):
        with pytest.raises(ValidationError):
            graph_from_json({"edges": [[0, 1]]})
        with pytest.raises(ValidationError):
            graph_from_json({"n": 2, "edges": [[0]]})

    def test_dot_output(self):
        text = to_dot(cycle_graph(3), coordinates=[(0, 0), (1, 0), (0, 1)])
        assert "0 -- 1;" in text
        assert 'pos="1,0!"' in text
