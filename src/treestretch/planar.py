"""Plane embeddings, dual graphs, and face-level lower bounds.

A plane graph is stored combinatorially: each face is a cyclic walk given as a
sequence of edge indices, with one face marked as the outer face. Validation
requires every edge to lie on exactly two distinct faces (so the dual graph is
loop-free) and checks Euler's formula, which pins the face count.

The dual graph keeps the primal edge indexing: dual edge i joins the two faces
incident to primal edge i. Parallel dual edges are allowed (two faces may
share several edges), which is why the dual is not a plain ``Graph``.

Face levels are breadth-first distances from the outer face in the dual. For
the grid families the maximum level has a closed form, and a face of level
``lam`` forces a lower bound on the stretch of every spanning tree: any tree
path connecting the endpoints of an edge on a deep face must escape past
``lam`` nested face rings. The bound is ``2*lam + 1`` for the rectangular
grid and ``lam + 1`` for the triangulated families. Each grid's embedding,
closed form and bound rule sit in its record in ``constructions.FAMILIES``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Sequence

from .families import FamilySpec, family_of
from .graphs import (
    DomainError,
    Graph,
    ParameterError,
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
    """A graph with a combinatorial embedding: faces as cyclic edge walks.

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


def _face_vertices(graph: Graph, face: tuple[int, ...], label: str) -> tuple[int, ...]:
    """Vertex sequence of a closed face walk, or ValidationError."""
    if len(face) < 3:
        raise ValidationError(f"{label} has fewer than three edges")
    for e in face:
        if not (0 <= e < graph.m):
            raise ValidationError(f"{label} uses edge index {e}, out of range")
    for start in graph.edges[face[0]]:
        cur = start
        seq = [start]
        ok = True
        for e in face:
            u, v = graph.edges[e]
            if cur == u:
                cur = v
            elif cur == v:
                cur = u
            else:
                ok = False
                break
            seq.append(cur)
        if ok and cur == start:
            return tuple(seq[:-1])
    raise ValidationError(f"{label} is not a closed walk")


def make_plane_graph(
    graph: Graph,
    faces: Iterable[Iterable[int]],
    outer_face: int,
    family: str | None = None,
    labels: Iterable[Hashable] | None = None,
) -> PlaneGraph:
    """Validate a combinatorial embedding and assemble the plane graph.

    Checks: the graph is connected, every face is a closed walk, every edge
    lies on exactly two distinct faces, and the face count satisfies Euler's
    formula f = m - n + 2. ``labels`` default to the face indices.
    """
    face_tuples = tuple(tuple(int(e) for e in f) for f in faces)
    labels = tuple(range(len(face_tuples)) if labels is None else labels)
    if len(labels) != len(face_tuples):
        raise ValidationError(f"{len(labels)} labels for {len(face_tuples)} faces")
    if not is_connected(graph):
        raise ValidationError("plane graphs must be connected")
    if not (0 <= outer_face < len(face_tuples)):
        raise ValidationError(f"outer face index {outer_face} out of range")
    for k, f in enumerate(face_tuples):
        _face_vertices(graph, f, f"face {k}")
    incident: list[list[int]] = [[] for _ in range(graph.m)]
    for k, f in enumerate(face_tuples):
        for e in f:
            incident[e].append(k)
    for e, facelist in enumerate(incident):
        if len(facelist) != 2:
            raise ValidationError(
                f"edge {e} lies on {len(facelist)} face walk(s), expected exactly 2"
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
class DualGraph:
    """Faces as vertices; dual edge i crosses primal edge i (same indexing)."""

    plane: PlaneGraph
    endpoints: tuple[tuple[int, int], ...]
    edge_correspondence: tuple[int, ...]

    @property
    def n_faces(self) -> int:
        return self.plane.n_faces

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per face, the incident (edge index, other face) pairs, edge-sorted."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_faces)]
        for e, (fa, fb) in enumerate(self.endpoints):
            adj[fa].append((e, fb))
            adj[fb].append((e, fa))
        return tuple(tuple(sorted(a)) for a in adj)


def dual(plane: PlaneGraph) -> DualGraph:
    return DualGraph(
        plane=plane,
        endpoints=plane.edge_faces,
        edge_correspondence=tuple(range(plane.graph.m)),
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
    dg = dual(plane)
    level = [-1] * plane.n_faces
    pred = [-1] * plane.n_faces
    level[plane.outer_face] = 0
    queue = deque([plane.outer_face])
    while queue:
        f = queue.popleft()
        for _, other in dg.adjacency[f]:
            if level[other] == -1:
                level[other] = level[f] + 1
                pred[other] = f
                queue.append(other)
    return FaceLevels(plane=plane, level=tuple(level), predecessor=tuple(pred))


# ---------------------------------------------------------------------------
# Analytic embeddings for the grid families and the cube


def embed_grid(spec: FamilySpec | Cube, graph: Graph | None = None) -> PlaneGraph:
    """Plane embedding of a grid family or the cube, outer face listed last.

    The grids take their face order and face labels from their family record
    and embed ``graph`` when the caller has built the grid already. Cube: the
    six axis-aligned faces, the outer face being bit 0 = 0.
    """
    if isinstance(spec, Cube):
        return _embed_cube()
    fam = family_of(spec)
    if fam is None or fam.embed is None:
        raise ParameterError(f"no analytic embedding for {spec!r}")
    return fam.embed(spec, fam.graph(spec)[0] if graph is None else graph)


def _embed_cube() -> PlaneGraph:
    edges = []
    for u in range(8):
        for bit in range(3):
            v = u ^ (1 << bit)
            if u < v:
                edges.append((u, v))
    g = make_graph(8, edges)

    def eid(a: int, b: int) -> int:
        return g.edge_index[(a, b) if a < b else (b, a)]

    gray = [(0, 0), (0, 1), (1, 1), (1, 0)]
    faces = []
    for axis in range(3):
        o1, o2 = [b for b in range(3) if b != axis]
        for value in (0, 1):
            corners = [
                (value << axis) | (g1 << o1) | (g2 << o2) for g1, g2 in gray
            ]
            faces.append(
                tuple(
                    eid(corners[k], corners[(k + 1) % 4]) for k in range(4)
                )
            )
    return make_plane_graph(g, faces, 0, family="cube")


# ---------------------------------------------------------------------------
# Closed forms and lower bounds


def lambda_max_formula(spec: FamilySpec) -> int:
    """Closed-form maximum face level of the grid families."""
    fam = family_of(spec)
    if fam is None or fam.lambda_max is None:
        raise ParameterError(f"no face-level formula for {spec!r}")
    return fam.lambda_max(spec)


def stretch_lower_bound(plane: PlaneGraph) -> int:
    """Stretch lower bound certified by the deepest face level.

    Every spanning tree of the rectangular grid has stretch at least
    2*lambda_max + 1; for the triangulated families the bound is
    lambda_max + 1. Embeddings without one of these family tags are refused:
    no bound is established for them.
    """
    fam = family_of(plane.family)
    if fam is None or fam.level_bound is None:
        raise DomainError(
            f"no face-level stretch bound is established for family {plane.family!r}"
        )
    return fam.level_bound(face_levels(plane).lambda_max)


# ---------------------------------------------------------------------------
# Tree-cotree duality


@dataclass(frozen=True)
class DualSpanningTree:
    """A spanning tree of the dual graph given by primal edge indices."""

    dual_graph: DualGraph
    tree_edges: frozenset[int]

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.dual_graph.n_faces)]
        for e in sorted(self.tree_edges):
            fa, fb = self.dual_graph.endpoints[e]
            adj[fa].append((e, fb))
            adj[fb].append((e, fa))
        return tuple(tuple(a) for a in adj)


def is_dual_spanning_tree(dg: DualGraph, edge_set: frozenset[int]) -> tuple[bool, str | None]:
    """Check that the dual edges with these indices span all faces as a tree."""
    nf = dg.n_faces
    for e in edge_set:
        if not (0 <= e < len(dg.endpoints)):
            return False, f"edge index {e} out of range"
    if len(edge_set) != nf - 1:
        return False, f"{len(edge_set)} edges cannot span {nf} faces"
    seen = {dg.plane.outer_face}
    stack = [dg.plane.outer_face]
    adj: dict[int, list[int]] = {}
    for e in edge_set:
        fa, fb = dg.endpoints[e]
        adj.setdefault(fa, []).append(fb)
        adj.setdefault(fb, []).append(fa)
    while stack:
        f = stack.pop()
        for other in adj.get(f, ()):
            if other not in seen:
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
    dg = dual(plane)
    cotree = frozenset(tree.cotree_edges)
    ok, reason = is_dual_spanning_tree(dg, cotree)
    if not ok:
        raise ValidationError(f"cotree is not a dual spanning tree: {reason}")
    return DualSpanningTree(dual_graph=dg, tree_edges=cotree)


def overlay_dot(
    plane: PlaneGraph,
    coordinates: Sequence[Sequence[float]] | None = None,
    name: str = "overlay",
) -> str:
    """DOT text with the primal graph solid and the dual graph dotted.

    Primal vertices are circles (with position hints when coordinates are
    given); faces appear as boxes, the outer face marked, and each dual edge
    is labeled with the index of the primal edge it crosses.
    """
    g = plane.graph
    lines = [f"graph {name} {{"]
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
    dg = dtree.dual_graph
    fa, fb = dg.endpoints[edge]
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
        for e, (x, y) in enumerate(dg.endpoints)
        if (x in comp) != (y in comp)
    )
