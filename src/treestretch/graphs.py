"""Core graph and spanning-tree types plus the metric primitives everything else uses.

Graphs are simple and undirected. Vertices are dense 0-based indices; the edge list
is kept in canonical sorted order so that edge indices are stable and enumeration
order is reproducible. Spanning trees are stored as frozen sets of edge indices into
the host graph, which makes tree/cotree bookkeeping and serialization cheap.

Tree distances and paths are answered by rooting the tree once at vertex 0 and
walking parents; O(n) per query is fine at the scales this library targets, so
there is no LCA preprocessing.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence


class GraphError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GraphError):
    """A structural invariant is violated (bad tree, disconnected input, ...)."""


class ParameterError(GraphError):
    """Arguments are outside the valid range for the requested object."""


class DomainError(GraphError):
    """The operation is not defined for this input (e.g. girth bound of a forest)."""


class ResourceLimitError(GraphError):
    """An enumeration cap was exceeded; carries the partial count."""

    def __init__(self, message: str, partial_count: int):
        super().__init__(message)
        self.partial_count = partial_count


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``edges`` is a tuple of (u, v) pairs with u < v, sorted lexicographically;
    build instances through :func:`make_graph` which validates and canonicalizes.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(neighbors)) for neighbors in adj)

    @cached_property
    def edge_index(self) -> Mapping[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        return key in self.edge_index

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def make_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a canonical Graph, rejecting self-loops, duplicates and bad indices."""
    if n < 1:
        raise ParameterError(f"vertex count must be positive, got {n}")
    canon: set[tuple[int, int]] = set()
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise ValidationError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
        pair = (u, v) if u < v else (v, u)
        if pair in canon:
            raise ValidationError(f"duplicate edge {pair}")
        canon.add(pair)
    return Graph(n=n, edges=tuple(sorted(canon)))


def is_connected(g: Graph) -> bool:
    """Whether every vertex is reachable from vertex 0.

    A connected graph on n vertices has at least n - 1 edges, so a sparser
    one is refused before anything of size n is allocated.
    """
    if g.n == 0 or g.m < g.n - 1:
        return False
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for w in g.adjacency[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count == g.n


def relabel_graph(g: Graph, perm: Sequence[int]) -> Graph:
    """Return the graph with vertex i renamed to perm[i] (perm must be a bijection)."""
    if sorted(perm) != list(range(g.n)):
        raise ParameterError("perm is not a permutation of the vertex set")
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph on ``vertices``; returns (subgraph, old-index-per-new-vertex)."""
    keep = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(keep)}
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    return make_graph(len(keep), edges), keep


# ---------------------------------------------------------------------------
# Spanning trees


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of ``host`` given as a frozen set of host edge indices."""

    host: Graph
    tree_edges: frozenset[int]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.host.n)]
        for i in self.tree_edges:
            u, v = self.host.edges[i]
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(neighbors)) for neighbors in adj)

    @cached_property
    def _rooted(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(parent, depth) arrays for the tree rooted at vertex 0."""
        parent = [-1] * self.host.n
        depth = [0] * self.host.n
        queue = deque([0])
        seen = [False] * self.host.n
        seen[0] = True
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    queue.append(w)
        return tuple(parent), tuple(depth)

    @property
    def cotree_edges(self) -> frozenset[int]:
        return frozenset(range(self.host.m)) - self.tree_edges

    def edge_pairs(self) -> list[tuple[int, int]]:
        return [self.host.edges[i] for i in sorted(self.tree_edges)]


def is_spanning_tree(g: Graph, edge_set: Iterable[int]) -> tuple[bool, str | None]:
    """Check whether the edge indices form a spanning tree; returns (ok, reason)."""
    idx = list(edge_set)
    for i in idx:
        if not (0 <= i < g.m):
            return False, f"edge index {i} out of range"
    if len(set(idx)) != len(idx):
        return False, "repeated edge index"
    if len(idx) != g.n - 1:
        return False, f"expected {g.n - 1} edges, got {len(idx)}"
    if g.n == 1:
        return True, None
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    covered = set()
    cycle = False
    for i in idx:
        u, v = g.edges[i]
        covered.update((u, v))
        ru, rv = find(u), find(v)
        if ru == rv:
            cycle = True
        else:
            parent[ru] = rv
    if len(covered) < g.n:
        missing = next(v for v in range(g.n) if v not in covered)
        return False, f"vertex {missing} is not covered"
    if cycle:
        return False, "edges contain a cycle"
    return True, None


def spanning_tree(g: Graph, edge_set: Iterable[int]) -> SpanningTree:
    """Validating constructor; raises ValidationError naming the violated invariant."""
    idx = frozenset(edge_set)
    ok, reason = is_spanning_tree(g, idx)
    if not ok:
        raise ValidationError(f"not a spanning tree: {reason}")
    return SpanningTree(host=g, tree_edges=idx)


def spanning_tree_from_pairs(g: Graph, pairs: Iterable[Sequence[int]]) -> SpanningTree:
    """Convenience constructor from vertex pairs instead of edge indices."""
    idx = []
    for p in pairs:
        u, v = int(p[0]), int(p[1])
        key = (u, v) if u < v else (v, u)
        if key not in g.edge_index:
            raise ValidationError(f"pair {key} is not an edge of the host graph")
        idx.append(g.edge_index[key])
    return spanning_tree(g, idx)


def tree_distance(t: SpanningTree, u: int, v: int) -> int:
    """Number of tree edges on the unique u-v path."""
    n = t.host.n
    if not (0 <= u < n and 0 <= v < n):
        raise ParameterError(f"vertex out of range: ({u},{v}) with n={n}")
    parent, depth = t._rooted
    d = 0
    while depth[u] > depth[v]:
        u = parent[u]
        d += 1
    while depth[v] > depth[u]:
        v = parent[v]
        d += 1
    while u != v:
        u = parent[u]
        v = parent[v]
        d += 2
    return d


def tree_path(t: SpanningTree, u: int, v: int) -> tuple[int, ...]:
    """Vertex sequence of the unique u-v path in the tree (u first, v last)."""
    n = t.host.n
    if not (0 <= u < n and 0 <= v < n):
        raise ParameterError(f"vertex out of range: ({u},{v}) with n={n}")
    parent, depth = t._rooted
    left: list[int] = [u]
    right: list[int] = [v]
    while depth[left[-1]] > depth[right[-1]]:
        left.append(parent[left[-1]])
    while depth[right[-1]] > depth[left[-1]]:
        right.append(parent[right[-1]])
    while left[-1] != right[-1]:
        left.append(parent[left[-1]])
        right.append(parent[right[-1]])
    return tuple(left + right[-2::-1])


@dataclass(frozen=True)
class StretchCertificate:
    """Maximum tree distance over graph edges, with the edge and path realizing it."""

    stretch: int
    witness_edge: tuple[int, int] | None
    witness_path: tuple[int, ...]


def stretch(g: Graph, t: SpanningTree) -> StretchCertificate:
    """Max over graph edges uv of the tree distance d_T(u,v), with a witness.

    An edgeless graph has stretch 0 by convention (no witness).
    """
    if t.host is not g and t.host != g:
        raise ValidationError("tree does not belong to this graph")
    best = 0
    witness: tuple[int, int] | None = None
    for u, v in g.edges:
        d = tree_distance(t, u, v)
        if d > best:
            best = d
            witness = (u, v)
    path = tree_path(t, witness[0], witness[1]) if witness else ()
    return StretchCertificate(stretch=best, witness_edge=witness, witness_path=path)


def girth(g: Graph) -> int | float:
    """Length of a shortest cycle, or math.inf for forests.

    A breadth-first search from every vertex (Itai & Rodeh, "Finding a minimum
    circuit in a graph", SIAM J. Comput. 1978). When the search pops a vertex
    ``a`` and meets a neighbour ``b`` that is already visited and is not the
    parent of ``a``, the edge (a, b) is not a link of the BFS tree, and
    ``dist[a] + dist[b] + 1`` becomes a candidate.

    No candidate undershoots: it is the length of a closed walk that runs down
    the tree to ``a``, crosses (a, b) once and returns up the tree from ``b``,
    and a closed walk that uses an edge exactly once contains a cycle.

    Some candidate is exact: take a shortest cycle C, of length k, and a start
    ``s`` on C. The BFS tree cannot hold every edge of C, so some edge of C is
    not a tree link. If it joins the i-th and (i + 1)-th vertex of C counted
    from ``s``, its ends are at most i and k - i - 1 steps from ``s`` along C,
    so its candidate is at most k. The first of its ends to be popped records
    it, and that end is at most (k - 1) / 2 from ``s``.

    Two rules stop work that cannot lower the minimum ``best`` found so far:

    - a search ends when it pops a vertex ``a`` with ``2 * dist[a] >= best``.
      BFS pops vertices in order of distance, and a visited non-parent
      neighbour of a later vertex ``a'`` is at least ``dist[a'] - 1`` away, so
      every later candidate is at least ``2 * dist[a] >= best``. While
      ``best`` is still above k, the exact candidate of C is recorded before
      this rule fires, since its end is popped at ``2 * dist <= k - 1``;
    - the whole search returns once ``best`` is 3, the shortest cycle of a
      simple graph.

    ``dist`` and ``parent`` are allocated once; after each search only the
    vertices it reached are reset, so a start costs the size of its ball.
    """
    adjacency = g.adjacency
    dist = [-1] * g.n
    parent = [-1] * g.n
    best: int | float = math.inf
    for s in range(g.n):
        dist[s] = 0
        parent[s] = -1
        reached = [s]  # the BFS queue: popped vertices stay in it for the reset
        head = 0
        while head < len(reached):
            a = reached[head]
            head += 1
            da = dist[a]
            if 2 * da >= best:
                break
            for b in adjacency[a]:
                db = dist[b]
                if db < 0:
                    dist[b] = da + 1
                    parent[b] = a
                    reached.append(b)
                elif b != parent[a] and da + db + 1 < best:
                    best = da + db + 1
        for v in reached:
            dist[v] = -1
        if best == 3:
            break
    return best


# ---------------------------------------------------------------------------
# Blocks (biconnected components)


@dataclass(frozen=True)
class BlockDecomposition:
    """Biconnected components as vertex sets, plus cut vertices.

    ``block_edges`` keeps the edge indices per block (every edge lies in exactly
    one block), which the block-wise solvers need.
    """

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    block_edges: tuple[tuple[int, ...], ...]


def blocks(g: Graph) -> BlockDecomposition:
    """Standard biconnected decomposition (iterative Tarjan with an edge stack)."""
    if not is_connected(g):
        raise ValidationError("block decomposition requires a connected graph")
    if g.n == 1:
        return BlockDecomposition(blocks=(frozenset({0}),), cut_vertices=frozenset(), block_edges=((),))

    index_of = g.edge_index
    disc = [-1] * g.n
    low = [0] * g.n
    cuts: set[int] = set()
    comp_edges: list[tuple[int, ...]] = []
    edge_stack: list[int] = []
    counter = 0

    # Iterative DFS: each frame is [vertex, parent_vertex, neighbor_iter, child_count]
    stack: list[list] = [[0, -1, iter(g.adjacency[0]), 0]]
    disc[0] = low[0] = counter
    counter += 1
    while stack:
        frame = stack[-1]
        v, parent_v, it, _ = frame
        advanced = False
        for w in it:
            if w == parent_v:
                continue
            key = (v, w) if v < w else (w, v)
            ei = index_of[key]
            if disc[w] < 0:
                edge_stack.append(ei)
                frame[3] += 1
                disc[w] = low[w] = counter
                counter += 1
                stack.append([w, v, iter(g.adjacency[w]), 0])
                advanced = True
                break
            elif disc[w] < disc[v]:
                edge_stack.append(ei)
                low[v] = min(low[v], disc[w])
        if advanced:
            continue
        stack.pop()
        if stack:
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                # u closes a block; pop edges up to and including (u, v).
                key = (u, v) if u < v else (v, u)
                ei = index_of[key]
                block: list[int] = []
                while True:
                    e = edge_stack.pop()
                    block.append(e)
                    if e == ei:
                        break
                comp_edges.append(tuple(sorted(block)))
                if stack[-1][1] != -1 or stack[-1][3] > 1:
                    cuts.add(u)

    block_vertices = []
    for es in comp_edges:
        vs: set[int] = set()
        for e in es:
            vs.update(g.edges[e])
        block_vertices.append(frozenset(vs))
    return BlockDecomposition(
        blocks=tuple(block_vertices),
        cut_vertices=frozenset(cuts),
        block_edges=tuple(comp_edges),
    )


# ---------------------------------------------------------------------------
# Serialization


def graph_to_json(g: Graph, meta: Mapping | None = None) -> dict:
    """Canonical JSON form: sorted pairs, sorted edge list, meta passthrough."""
    return {
        "n": g.n,
        "edges": [[u, v] for u, v in g.edges],
        "meta": dict(meta) if meta else {},
    }


def json_ints(kind: str, value: object, length: int | None = None) -> list[int]:
    """``value`` as a list of JSON integers, of exactly ``length`` entries if given.

    Only ``int`` entries pass: not ``bool``, not a float (``2.7``, or ``1e400``,
    which JSON reads as infinity), not a string. Anything else raises
    ValidationError("malformed <kind> JSON: ...") instead of being coerced.
    """
    if not isinstance(value, (list, tuple)) or length is not None and len(value) != length:
        want = "a list of integers" if length is None else f"a list of {length} integers"
        raise ValidationError(f"malformed {kind} JSON: expected {want}, got {value!r}")
    for x in value:
        if type(x) is not int:
            raise ValidationError(f"malformed {kind} JSON: expected an integer, got {x!r}")
    return list(value)


def graph_from_json(data: Mapping) -> tuple[Graph, dict]:
    """Parse the canonical JSON form; returns (graph, meta)."""
    try:
        [n] = json_ints("graph", [data["n"]])
        edges = [json_ints("graph", e, 2) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed graph JSON: {exc}") from exc
    meta = data.get("meta") or {}
    if not isinstance(meta, Mapping):
        raise ValidationError("malformed graph JSON: meta must be an object")
    return make_graph(n, edges), dict(meta)


def to_dot(
    g: Graph,
    tree: SpanningTree | None = None,
    coordinates: Sequence[Sequence[float]] | None = None,
) -> str:
    """DOT export; tree edges solid, cotree edges dashed, coordinates as pos hints."""
    tree_set = tree.tree_edges if tree is not None else None
    lines = ["graph G {"]
    for v in range(g.n):
        if coordinates is not None:
            x, y = coordinates[v][0], coordinates[v][1]
            lines.append(f'  {v} [pos="{x},{y}!"];')
        else:
            lines.append(f"  {v};")
    for i, (u, v) in enumerate(g.edges):
        if tree_set is None or i in tree_set:
            lines.append(f"  {u} -- {v};")
        else:
            lines.append(f"  {u} -- {v} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
