"""Plane embeddings, dual graphs, and face-level lower bounds.

A plane graph is stored combinatorially: each face is a vertex cycle, whose
sides are the edges joining consecutive vertices (the last vertex to the
first), with one face marked as the outer face. Validation requires every edge
to lie on exactly two distinct faces (so the dual graph is loop-free) and
checks Euler's formula, which pins the face count.

A plane graph is its own dual: dual edge i crosses primal edge i and joins
the two faces in ``edge_faces[i]``. Parallel dual edges are allowed (two
faces may share several edges), which is why the dual is kept as per-face
adjacency and not as a plain ``Graph``.

Face levels are breadth-first distances from the outer face in the dual. For
the grid families the maximum level has a closed form, and a face of level
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
from typing import Hashable, Iterable, Sequence

from .graphs import (
    DomainError,
    Graph,
    SpanningTree,
    ValidationError,
    is_connected,
    make_graph,
)


@dataclass(frozen=True)
class Cube:
    """The 3-dimensional hypercube Q_3 (vertices are the 3-bit strings)."""


@dataclass(frozen=True)
class PlaneGraph:
    """A graph with a combinatorial embedding: faces as vertex cycles.

    ``labels`` names each face: the grid embeddings label faces by their
    lattice position, other embeddings by face index.
    """

    graph: Graph
    faces: tuple[tuple[int, ...], ...]
    outer_face: int
    edge_faces: tuple[tuple[int, int], ...] = field(compare=False)
    family: str | None = None
    labels: tuple[Hashable, ...] = field(default=(), compare=False)

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


def make_plane_graph(
    graph: Graph,
    faces: Iterable[Iterable[int]],
    outer_face: int,
    family: str | None = None,
    labels: Iterable[Hashable] | None = None,
) -> PlaneGraph:
    """Validate a combinatorial embedding and assemble the plane graph.

    Each face is a vertex cycle. Checks: the graph is connected, the outer
    face index is in range, there is one label per face, every face has at
    least three vertices, consecutive vertices of a face (the last and the
    first too) are adjacent, every edge lies on exactly two distinct faces,
    and the face count satisfies Euler's formula f = m - n + 2. ``labels``
    default to the face indices.
    """
    face_tuples = tuple(tuple(int(v) for v in f) for f in faces)
    labels = tuple(range(len(face_tuples)) if labels is None else labels)
    if len(labels) != len(face_tuples):
        raise ValidationError(f"{len(labels)} labels for {len(face_tuples)} faces")
    if not is_connected(graph):
        raise ValidationError("plane graphs must be connected")
    if not (0 <= outer_face < len(face_tuples)):
        raise ValidationError(f"outer face index {outer_face} out of range")
    edge_index = graph.edge_index
    incident: list[list[int]] = [[] for _ in range(graph.m)]
    for k, f in enumerate(face_tuples):
        if len(f) < 3:
            raise ValidationError(f"face {k} has fewer than three vertices")
        a = f[-1]
        for b in f:
            e = edge_index.get((a, b) if a < b else (b, a))
            if e is None:
                raise ValidationError(f"face {k} steps from {a} to {b}, which is not an edge")
            incident[e].append(k)
            a = b
    for e, facelist in enumerate(incident):
        if len(facelist) != 2:
            raise ValidationError(
                f"edge {e} lies on {len(facelist)} face side(s), expected exactly 2"
            )
        if facelist[0] == facelist[1]:
            raise ValidationError(f"edge {e} is a bridge (both sides on face {facelist[0]})")
    if len(face_tuples) != graph.m - graph.n + 2:
        raise ValidationError(
            f"face count {len(face_tuples)} violates Euler's formula "
            f"(expected {graph.m - graph.n + 2})"
        )
    edge_faces = tuple((min(fl), max(fl)) for fl in incident)
    return PlaneGraph(
        graph=graph,
        faces=face_tuples,
        outer_face=outer_face,
        edge_faces=edge_faces,
        family=family,
        labels=labels,
    )


@dataclass(frozen=True)
class FaceLevels:
    """Breadth-first face distances from the outer face in the dual graph."""

    plane: PlaneGraph
    level: tuple[int, ...]
    predecessor: tuple[int, ...]

    @property
    def lambda_max(self) -> int:
        return max(self.level)


def face_levels(plane: PlaneGraph) -> FaceLevels:
    """BFS over the dual from the outer face; neighbors in edge-index order."""
    level = [-1] * plane.n_faces
    pred = [-1] * plane.n_faces
    level[plane.outer_face] = 0
    queue = deque([plane.outer_face])
    while queue:
        f = queue.popleft()
        for _, other in plane.face_adjacency[f]:
            if level[other] == -1:
                level[other] = level[f] + 1
                pred[other] = f
                queue.append(other)
    return FaceLevels(plane=plane, level=tuple(level), predecessor=tuple(pred))


# ---------------------------------------------------------------------------
# The cube


def embed_cube() -> PlaneGraph:
    """The cube's six axis-aligned faces, the outer face being bit 0 = 0."""
    edges = []
    for u in range(8):
        for bit in range(3):
            v = u ^ (1 << bit)
            if u < v:
                edges.append((u, v))
    g = make_graph(8, edges)
    gray = [(0, 0), (0, 1), (1, 1), (1, 0)]
    faces = []
    for axis in range(3):
        o1, o2 = [b for b in range(3) if b != axis]
        for value in (0, 1):
            faces.append(tuple((value << axis) | (g1 << o1) | (g2 << o2) for g1, g2 in gray))
    return make_plane_graph(g, faces, 0, family="cube")


# ---------------------------------------------------------------------------
# Tree-cotree duality


@dataclass(frozen=True)
class DualSpanningTree:
    """A spanning tree of the dual graph given by primal edge indices."""

    plane: PlaneGraph
    tree_edges: frozenset[int]

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(
            tuple(p for p in pairs if p[0] in self.tree_edges)
            for pairs in self.plane.face_adjacency
        )


def is_dual_spanning_tree(plane: PlaneGraph, edge_set: frozenset[int]) -> tuple[bool, str | None]:
    """Check that the dual edges with these indices span all faces as a tree."""
    nf = plane.n_faces
    for e in edge_set:
        if not (0 <= e < plane.graph.m):
            return False, f"edge index {e} out of range"
    if len(edge_set) != nf - 1:
        return False, f"{len(edge_set)} edges cannot span {nf} faces"
    seen = {plane.outer_face}
    stack = [plane.outer_face]
    while stack:
        f = stack.pop()
        for e, other in plane.face_adjacency[f]:
            if e in edge_set and other not in seen:
                seen.add(other)
                stack.append(other)
    if len(seen) != nf:
        return False, "the dual edges do not connect all faces"
    return True, None


def cotree_dual_tree(plane: PlaneGraph, tree: SpanningTree) -> DualSpanningTree:
    """The dual spanning tree formed by the cotree edges of a primal tree.

    For any plane graph, the edges outside a spanning tree always connect all
    faces into a tree of the dual; this validates and packages that set.
    """
    if tree.host is not plane.graph and tree.host != plane.graph:
        raise ValidationError("the spanning tree belongs to a different graph")
    cotree = frozenset(tree.cotree_edges)
    ok, reason = is_dual_spanning_tree(plane, cotree)
    if not ok:
        raise ValidationError(f"cotree is not a dual spanning tree: {reason}")
    return DualSpanningTree(plane=plane, tree_edges=cotree)


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


def dual_fundamental_cut(dtree: DualSpanningTree, edge: int) -> frozenset[int]:
    """Dual edges crossing the two face components of the dual tree minus one edge.

    ``edge`` must be a tree edge of the dual spanning tree. The returned set
    always contains ``edge`` itself.
    """
    if edge not in dtree.tree_edges:
        raise DomainError(f"edge {edge} is not an edge of the dual spanning tree")
    fa, fb = dtree.plane.edge_faces[edge]
    comp = {fa}
    stack = [fa]
    while stack:
        f = stack.pop()
        for e, other in dtree.adjacency[f]:
            if e != edge and other not in comp:
                comp.add(other)
                stack.append(other)
    return frozenset(
        e
        for e, (x, y) in enumerate(dtree.plane.edge_faces)
        if (x in comp) != (y in comp)
    )
