"""Plane embeddings, their dual graphs and face levels, and a DOT overlay.

A plane graph is given by its faces alone: each face is a vertex cycle, whose
sides join consecutive vertices (the last vertex to the first), with one face
marked as the outer face. The graph's edges are the face sides, so this module
is the only place that derives a graph from its faces. A face carries nothing
but its cycle: a caller that needs a face's position reads it off the face's
vertices, as ``treestretch levels`` reads a grid face's row. Validation requires
every side to lie on exactly two distinct faces (so the dual graph is
loop-free), the graph to be connected, and Euler's formula, which pins the
face count.

A plane graph carries its own dual: dual edge i crosses primal edge i and
joins the two faces in ``edge_faces[i]``. Parallel dual edges are allowed (two
faces may share several edges), which is why the dual is kept as per-face
adjacency and not as a plain ``Graph``. No layer builds dual trees or cuts:
the tree-cotree duality the paper's grid proofs use is checked in the tests,
on ``edge_faces`` and ``face_adjacency`` alone.

Face levels are breadth-first distances from the outer face in the dual, one
per face in face order, and the deepest level is their maximum. For the grid
families that maximum has a closed form, and a face of level
``lam`` forces a lower bound on the stretch of every spanning tree: any tree
path connecting the endpoints of an edge on a deep face must escape past
``lam`` nested face rings. The bound is ``2*lam + 1`` for the rectangular
grid and ``lam + 1`` for the triangulated families. Each grid's cells (from
which its faces come), closed form and bound rule sit in its record in
``families``; this module knows no family.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .graphs import Graph, ValidationError, is_connected, make_graph


@dataclass(frozen=True)
class PlaneGraph:
    """A graph with a combinatorial embedding: faces as vertex cycles."""

    graph: Graph
    faces: tuple[tuple[int, ...], ...]
    outer_face: int
    edge_faces: tuple[tuple[int, int], ...] = field(compare=False)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def bounded_faces(self) -> list[int]:
        return [f for f in range(len(self.faces)) if f != self.outer_face]

    @cached_property
    def face_adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per face, the (edge index, other face) pairs of the dual, edge-sorted."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_faces)]
        for e, (fa, fb) in enumerate(self.edge_faces):
            adj[fa].append((e, fb))
            adj[fb].append((e, fa))
        return tuple(tuple(a) for a in adj)


def make_plane_graph(n: int, faces: Iterable[Iterable[int]], outer_face: int) -> PlaneGraph:
    """The plane graph on vertices 0..n-1 whose edges are the sides of its faces.

    Each face is a vertex cycle; its sides join consecutive vertices, the last
    and the first too. Checks: the outer face index is in range, every face
    has at least three vertices, the sides join distinct vertices in range,
    every side lies on exactly two distinct faces, the graph is connected, and
    the face count satisfies Euler's formula f = m - n + 2.
    """
    face_tuples = tuple(tuple(int(v) for v in f) for f in faces)
    if not (0 <= outer_face < len(face_tuples)):
        raise ValidationError(f"outer face index {outer_face} out of range")
    side_faces: dict[tuple[int, int], list[int]] = {}
    for k, f in enumerate(face_tuples):
        if len(f) < 3:
            raise ValidationError(f"face {k} has fewer than three vertices")
        a = f[-1]
        for b in f:
            side_faces.setdefault((a, b) if a < b else (b, a), []).append(k)
            a = b
    graph = make_graph(n, side_faces)
    edge_faces = []
    for e, side in enumerate(graph.edges):
        facelist = side_faces[side]
        if len(facelist) != 2:
            raise ValidationError(
                f"edge {e} lies on {len(facelist)} face side(s), expected exactly 2"
            )
        if facelist[0] == facelist[1]:
            raise ValidationError(f"edge {e} is a bridge (both sides on face {facelist[0]})")
        edge_faces.append((min(facelist), max(facelist)))
    if not is_connected(graph):
        raise ValidationError("plane graphs must be connected")
    if len(face_tuples) != graph.m - graph.n + 2:
        raise ValidationError(
            f"face count {len(face_tuples)} violates Euler's formula "
            f"(expected {graph.m - graph.n + 2})"
        )
    return PlaneGraph(
        graph=graph, faces=face_tuples, outer_face=outer_face, edge_faces=tuple(edge_faces)
    )


def face_levels(plane: PlaneGraph) -> tuple[int, ...]:
    """Each face's breadth-first distance from the outer face in the dual graph.

    The BFS visits neighbors in edge-index order; the deepest level is the
    maximum of the tuple.
    """
    level = [-1] * plane.n_faces
    level[plane.outer_face] = 0
    queue = deque([plane.outer_face])
    while queue:
        f = queue.popleft()
        for _, other in plane.face_adjacency[f]:
            if level[other] == -1:
                level[other] = level[f] + 1
                queue.append(other)
    return tuple(level)


# ---------------------------------------------------------------------------
# The cube


def embed_cube() -> PlaneGraph:
    """The cube's six axis-aligned faces, the outer face being bit 0 = 0."""
    gray = [(0, 0), (0, 1), (1, 1), (1, 0)]
    faces = []
    for axis in range(3):
        o1, o2 = [b for b in range(3) if b != axis]
        for value in (0, 1):
            faces.append(tuple((value << axis) | (g1 << o1) | (g2 << o2) for g1, g2 in gray))
    return make_plane_graph(8, faces, 0)


# ---------------------------------------------------------------------------
# Drawing


def overlay_dot(plane: PlaneGraph, coordinates: Sequence[Sequence[float]] | None = None) -> str:
    """DOT text with the primal graph solid and the dual graph dotted.

    Primal vertices are circles (with position hints when coordinates are
    given); faces appear as boxes, the outer face marked, and each dual edge
    is labeled with the index of the primal edge it crosses.
    """
    g = plane.graph
    lines = ["graph overlay {"]
    for v in range(g.n):
        attrs = ""
        if coordinates is not None:
            x, y = coordinates[v][0], coordinates[v][1]
            attrs = f' [pos="{x},{y}!"]'
        lines.append(f"  v{v}{attrs};")
    for u, v in g.edges:
        lines.append(f"  v{u} -- v{v};")
    for f in range(plane.n_faces):
        mark = ", outer" if f == plane.outer_face else ""
        lines.append(f'  f{f} [shape=box, label="f{f}{mark}"];')
    for e, (fa, fb) in enumerate(plane.edge_faces):
        lines.append(f'  f{fa} -- f{fb} [style=dotted, label="{e}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
