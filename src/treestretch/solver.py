"""Exact minimum-stretch oracle via spanning-tree enumeration.

One search serves enumeration and sigma_exact. It walks the edge list in
canonical index order deciding include vs exclude, keeping one partial forest as
adjacency lists. The include branch is explored first, so trees are produced in a
fixed lexicographic order and the first optimum found is deterministic. An edge
whose ends the forest already joins is skipped; an edge is excluded only while
the forest and the later edges still join its ends, so every branch ends in a tree.

Along each branch the search tracks the largest tree distance already forced
between endpoints of a graph edge: once two vertices share a component of the
partial forest, the path between them is final, so that distance is a sound lower
bound on the finished tree's stretch. sigma_exact lowers the search's cutoff to the
best stretch so far and prunes the include branch with it. Once there is such a
tree, of stretch c, the exclude branch is cut too: every excluded edge must still
have a path of at most c - 1 edges through the forest and the undecided edges, or
no tree below can beat c. Enumeration uses no cutoff and neither bound. sigma_exact
stops at the girth floor (shortest cycle length minus one) as soon as a tree
attains it. When that floor is 2 and refutes_tree_2_spanner proves that no tree
has stretch 2, the pruned search stops at 3 instead: two necessary conditions for
a tree 2-spanner, one on the leaves and one on the edges in no triangle, decide
what the search would otherwise spend almost all its nodes proving, as on the
complete multipartite graphs with every part of at least two vertices. The
search is one loop over an explicit stack, with no recursion limit on its depth;
``ExactResult.nodes`` counts its steps that reach an edge or a tree.

A hand-rolled Bareiss elimination provides the matrix-tree count in exact integer
arithmetic as an independent cross-check on the enumerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .graphs import (
    DomainError,
    Graph,
    ParameterError,
    ResourceLimitError,
    SpanningTree,
    ValidationError,
    blocks,
    girth,
    is_connected,
    spanning_tree,
)

DEFAULT_MAX_TREES = 10_000_000


@dataclass(frozen=True)
class ExactResult:
    """Outcome of sigma_exact: optimum value, witness tree, and search statistics.

    ``nodes`` counts the search's steps: edges reached, skipped ones too, and
    finished trees. It is 0 when the input is already a tree and no search runs.
    ``no_tree_2_spanner`` is True when the pruned search stopped at 3 because
    refutes_tree_2_spanner proved that no spanning tree has stretch 2;
    ``lower_bound_used`` stays the girth floor either way.
    """

    sigma: int
    optimal_tree: SpanningTree
    trees_enumerated: int
    lower_bound_used: int
    pruned: bool
    nodes: int = 0
    no_tree_2_spanner: bool = False


def check_tree_cap(max_trees: int) -> int:
    """Return ``max_trees`` if it is a usable spanning-tree cap (at least 1)."""
    if max_trees < 1:
        raise ParameterError(f"the spanning-tree cap must be at least 1, got {max_trees}")
    return max_trees


def lower_bound_girth(g: Graph) -> int:
    """girth - 1, the floor any spanning tree's stretch must respect."""
    gi = girth(g)
    if math.isinf(gi):
        raise DomainError("graph has no cycle; the girth bound is undefined")
    return int(gi) - 1


def count_spanning_trees_kirchhoff(g: Graph) -> int:
    """Spanning-tree count as a Laplacian cofactor, via fraction-free Bareiss
    elimination on Python integers (exact, no floating point)."""
    if not is_connected(g):
        raise ValidationError("spanning-tree count requires a connected graph")
    n = g.n
    if n == 1:
        return 1
    size = n - 1  # minor: drop row/column of vertex 0
    a = [[0] * size for _ in range(size)]
    for u, v in g.edges:
        if u > 0:
            a[u - 1][u - 1] += 1
        if v > 0:
            a[v - 1][v - 1] += 1
        if u > 0 and v > 0:
            a[u - 1][v - 1] -= 1
            a[v - 1][u - 1] -= 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for r in range(k + 1, size):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, size):
            row_i = a[i]
            row_k = a[k]
            factor = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[size - 1][size - 1]


def refutes_tree_2_spanner(g: Graph) -> bool:
    """True when one of two necessary conditions proves that G has no tree 2-spanner.

    A tree 2-spanner is a spanning tree T with d_T(a, b) <= 2 for every edge ab of
    G, so a True answer proves sigma(G) >= 3. A False answer proves nothing: the two
    rules are necessary conditions only, and some graphs of stretch 3 pass both.

    Leaf rule. Let l be a leaf of T and p its neighbour in T. Every other
    G-neighbour x of l is joined to l outside T, so l and x need a common
    T-neighbour, and p is l's only one: px is in T, hence in G. So
    N_G[l] is a subset of N_G[p]: l is dominated by a neighbour. A tree on n >= 2
    vertices has at least two leaves, so if fewer than two vertices are dominated
    by a neighbour, G has no tree 2-spanner.

    Triangle rule. Let e = uv lie in no triangle of G. If e were not in T, u and v
    would need a common T-neighbour w, and uvw would be a triangle: so e is in T.
    Suppose e is not a bridge of G. Then some other edge f = xy of G crosses the
    cut that T - e leaves. f is not in T, as e is T's only edge across that cut, so
    f has a path x-w-y of two T-edges, and the path crosses the cut, so it uses e.
    Then x, w and y span a triangle of G that holds e, a contradiction. So an edge
    in no triangle that is not a bridge proves that G has no tree 2-spanner.
    """
    if not is_connected(g):
        raise ValidationError("a tree 2-spanner needs a connected graph")
    return _leaf_rule_refutes(g) or _triangle_rule_refutes(g)


def _leaf_rule_refutes(g: Graph) -> bool:
    """Do fewer than two vertices have a neighbour whose closed neighbourhood holds
    theirs?"""
    if g.n < 2:
        return False
    closed = [set(nbrs) | {v} for v, nbrs in enumerate(g.adjacency)]
    dominated = 0
    for v, nbrs in enumerate(g.adjacency):
        mine = closed[v]
        for p in nbrs:
            if mine <= closed[p]:
                dominated += 1
                if dominated == 2:
                    return False
                break
    return True


def _triangle_rule_refutes(g: Graph) -> bool:
    """Does some edge that is not a bridge lie in no triangle?

    An edge with an end of degree 1 is a bridge, so only the others are looked up
    in the blocks, and the blocks are found only when some such edge is bare.
    """
    adj = [set(nbrs) for nbrs in g.adjacency]
    bare = [
        j
        for j, (u, v) in enumerate(g.edges)
        if len(adj[u]) > 1 and len(adj[v]) > 1 and adj[u].isdisjoint(adj[v])
    ]
    if not bare:
        return False
    bridges = {es[0] for es in blocks(g).block_edges if len(es) == 1}
    return any(j not in bridges for j in bare)


class _TreeSearch:
    """Include-first walk over the spanning trees, shared by enumeration and the exact solve.

    The search keeps one forest, as adjacency lists, and the ``pending`` list of
    the edges excluded along the current branch, and walks them in one loop over an
    explicit stack of frames. A node is one step of that walk: an edge reached,
    skipped ones too, or a finished tree. At edge i = (u, v) a BFS from u in the
    forest gives u's tree distances. If it reaches v, edge i would close a cycle and
    is skipped. Otherwise the include branch adds it to the forest, and the exclude
    branch, a frame (i, forced) popped when the include branch is done, adds it to
    ``pending`` if the rule below lets it stay out. Let G' be the forest plus
    ``edges[i+1:]``; skipped and excluded edges are not in G'.

    With no finite cutoff, edge i may stay out iff u and v are joined in G', which
    ``within(i, i, n - 1)`` decides. Proof: the forest plus ``edges[i:]`` spans at
    every node. It is the whole connected graph at the root, an include or a skip
    leaves the vertex pairs it joins as they are, and an exclude is taken only when
    G', which is that graph minus edge i, still joins u and v, so still spans. The
    rule is therefore the usual one, "the forest plus ``edges[i+1:]`` still spans",
    and no branch runs past the last edge: there the forest alone spans, so the
    branch already ended in a tree.

    Once the caller has set a finite ``cutoff`` c, the exclude branch is cut by
    stretch as well: it is taken only if every pending edge k, newest (edge i)
    first, still has a path of at most c - 1 edges in G'. Edge i's path joins u and
    v in G', so the rule above holds too. Proof that this keeps every tree the
    search would report: each tree T finished below this node consists of forest
    edges and edges of ``edges[i+1:]``, so T is a subgraph of G' and
    d_T(a, b) >= d_G'(a, b) for every edge ab. An excluded edge with no path of at
    most c - 1 edges in G' therefore has d_T(a, b) >= c in every such T, so no T has
    stretch below c. The search reports a tree only when its stretch is below the
    cutoff: the forest reaches n - 1 edges only through an include, so a leaf is
    always the next node after one, with its forced distance below the cutoff; and
    at a leaf the forced distance is the stretch, because every graph edge got its
    tree distance at the include that joined its ends. The caller only lowers the
    cutoff, so the cut subtree holds no tree the search would have reported, and
    the reported trees, their order and their count stay the same.

    Each path that ``within`` finds for an excluded edge k is kept as k's witness, a
    list of edge indices, and a later check of k at any edge i tries it before a
    new BFS. The witness passes if it still has at most ``limit`` edges and each of
    its edges is in the forest (an ``in_forest`` flag per edge, set on include and
    cleared when the include is undone) or has index above i. Such a path lies in
    G', so it proves what the BFS decides, and a witness that fails only falls back
    to the BFS: every decision, and with it every branch and node, stays the same.
    A stale witness needs no undo.
    """

    def __init__(self, g: Graph, max_trees: int):
        self.n = g.n
        self.edges = g.edges
        self.max_trees = max_trees
        self.included: list[int] = []
        self.count = 0
        self.nodes = 0
        self.cutoff: float = math.inf

    def trees(self) -> Iterator[int]:
        """Yield the stretch of every tree reached, in include-first order.

        The tree is ``self.included`` at the yield. An edge is included only while
        ``forced``, the largest tree distance forced so far, stays below
        ``self.cutoff``, which the caller may lower between trees.
        """
        n, edges, included, cutoff = self.n, self.edges, self.included, self.cutoff
        forest: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for j, (a, b) in enumerate(edges):
            incident[a].append((j, b))
            incident[b].append((j, a))
        in_forest = [False] * len(edges)
        witness: list[list[int]] = [[] for _ in edges]
        pending: list[int] = []

        def forest_dists(start: int) -> tuple[list[int], list[int]]:
            """Tree distances from ``start`` in its forest component, and the BFS order."""
            dist = [-1] * n
            dist[start] = 0
            order = [start]
            for a in order:
                da = dist[a] + 1
                for _, b in forest[a]:
                    if dist[b] < 0:
                        dist[b] = da
                        order.append(b)
            return dist, order

        def within(k: int, i: int, limit: int) -> bool:
            """Are edge k's ends at most ``limit`` edges apart in the forest plus ``edges[i+1:]``?

            A path found is kept as ``witness[k]`` and tried first next time.
            """
            path = witness[k]
            if 0 < len(path) <= limit:
                for j in path:
                    if j <= i and not in_forest[j]:
                        break
                else:
                    return True
            a, b = edges[k]
            via = [-1] * n  # the edge that first reached each vertex
            via[a] = k
            frontier = [a]
            for _ in range(limit):
                reached = []
                for x in frontier:
                    for j, y in forest[x]:
                        if via[y] < 0:
                            via[y] = j
                            if y == b:
                                return keep_path(k, via)
                            reached.append(y)
                    for j, y in incident[x]:
                        if j > i and via[y] < 0:
                            via[y] = j
                            if y == b:
                                return keep_path(k, via)
                            reached.append(y)
                if not reached:
                    return False
                frontier = reached
            return False

        def keep_path(k: int, via: list[int]) -> bool:
            """Keep the path ``via`` traces from edge k's far end back to its near end."""
            a, b = edges[k]
            path = []
            while b != a:
                j = via[b]
                path.append(j)
                c, d = edges[j]
                b = c if d == b else d
            witness[k] = path
            return True

        def may_exclude(i: int, limit: int) -> bool:
            """Does every pending edge, newest first, pass ``within`` at edge i?"""
            for k in reversed(pending):
                if not within(k, i, limit):
                    return False
            return True

        stack: list[tuple[int, int]] = []
        i = forced = 0
        while True:
            # Walk down from edge i, include first, to a leaf or a refused include.
            while True:
                self.nodes += 1
                if len(included) == n - 1:
                    if self.count >= self.max_trees:
                        raise ResourceLimitError(
                            f"spanning-tree cap of {self.max_trees} exceeded", self.count
                        )
                    self.count += 1
                    yield forced
                    cutoff = self.cutoff
                    break
                u, v = edges[i]
                du, order_u = forest_dists(u)
                if du[v] >= 0:  # would close a cycle: skipped, not excluded
                    i += 1
                    continue
                # Including edge i merges the components of u and v; every graph edge
                # crossing them gets its final tree distance right now. Each such edge
                # has one end in each component, so the smaller one's incidences hold all.
                dv, order_v = forest_dists(v)
                if len(order_u) <= len(order_v):
                    side, d_side, d_other = order_u, du, dv
                else:
                    side, d_side, d_other = order_v, dv, du
                nf = forced
                for a in side:
                    da = d_side[a] + 1
                    for _, b in incident[a]:
                        if d_other[b] >= 0 and da + d_other[b] > nf:
                            nf = da + d_other[b]
                stack.append((i, forced))
                if nf >= cutoff:
                    break
                included.append(i)
                in_forest[i] = True
                forest[u].append((i, v))
                forest[v].append((i, u))
                i, forced = i + 1, nf
            # Back up to the newest exclude branch that may be taken.
            while True:
                if not stack:
                    return
                i, forced = stack.pop()
                if in_forest[i]:
                    u, v = edges[i]
                    included.pop()
                    forest[u].pop()
                    forest[v].pop()
                    in_forest[i] = False
                while pending and pending[-1] > i:  # excluded under edge i's include
                    pending.pop()
                pending.append(i)
                if within(i, i, n - 1) if cutoff == math.inf else may_exclude(i, cutoff - 1):
                    break
                pending.pop()
            i += 1


def enumerate_spanning_trees(
    g: Graph,
    visitor: Callable[[tuple[int, ...]], None] | None = None,
) -> int:
    """Visit every spanning tree exactly once (as a sorted tuple of edge indices).

    Returns the number of trees. Raises ResourceLimitError past ``DEFAULT_MAX_TREES``
    finished trees, reporting the partial count. The cap counts trees, not
    search work, so it does not bound the running time.
    """
    if not is_connected(g):
        raise ValidationError("cannot enumerate spanning trees of a disconnected graph")
    search = _TreeSearch(g, DEFAULT_MAX_TREES)
    for _ in search.trees():
        if visitor is not None:
            visitor(tuple(search.included))
    return search.count


def sigma_exact(
    g: Graph,
    use_pruning: bool = True,
    max_trees: int = DEFAULT_MAX_TREES,
) -> ExactResult:
    """Minimum stretch over all spanning trees, with a witness tree.

    With pruning on, branches that cannot beat the incumbent are abandoned: an
    include whose already-forced fundamental-cycle distance reaches it, and an
    exclude that leaves some excluded edge with no short enough path through the
    forest and the undecided edges. The search stops outright when the girth
    floor is met, or, when that floor is 2 and ``refutes_tree_2_spanner`` proves
    that no tree has stretch 2, when a tree of stretch 3 is found. Stopping there
    changes only ``nodes``: the pruned search reports a tree only when it beats
    every earlier one, so a tree whose stretch equals a proved lower bound is the
    last one it would report, and sigma, the witness and ``trees_enumerated`` are
    those of the full pruned search. With pruning off, every tree is enumerated
    (useful as an oracle and for exact tree counts). ``max_trees`` caps the
    finished trees the search reaches, not its work: a pruned search may explore
    many branches per tree, so a small cap does not bound the running time; it
    must be at least 1.
    """
    check_tree_cap(max_trees)
    if not is_connected(g):
        raise ValidationError("sigma_exact requires a connected graph")
    n, m = g.n, g.m
    if m == n - 1:
        tree = spanning_tree(g, range(m))
        sigma = 1 if m > 0 else 0
        return ExactResult(
            sigma=sigma,
            optimal_tree=tree,
            trees_enumerated=1,
            lower_bound_used=sigma,
            pruned=False,
        )
    floor = lower_bound_girth(g)
    no_2_spanner = use_pruning and floor == 2 and refutes_tree_2_spanner(g)
    stop_at = 3 if no_2_spanner else floor
    search = _TreeSearch(g, max_trees)
    best_sigma = math.inf
    best_tree: tuple[int, ...] | None = None
    for forced in search.trees():
        if forced < best_sigma:
            best_sigma, best_tree = forced, tuple(search.included)
            if use_pruning:
                if best_sigma <= stop_at:
                    break
                search.cutoff = best_sigma
    assert best_tree is not None, "connected graph must have a spanning tree"
    return ExactResult(
        sigma=int(best_sigma),
        optimal_tree=spanning_tree(g, best_tree),
        trees_enumerated=search.count,
        lower_bound_used=floor,
        pruned=use_pruning,
        nodes=search.nodes,
        no_tree_2_spanner=no_2_spanner,
    )
