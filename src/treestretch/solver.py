"""Exact minimum-stretch oracle via spanning-tree enumeration.

One search serves enumeration and sigma_exact. It walks the edge list in
canonical index order deciding include vs exclude, keeping one partial forest as
adjacency lists. The include branch is explored first, so trees are produced in a
fixed lexicographic order and the first optimum found is deterministic. An edge
whose ends the forest already joins is skipped; an edge is excluded only while
the edges not yet excluded still join its ends, so every branch ends in a tree.

Along each branch the search tracks the largest tree distance already forced
between endpoints of a graph edge: once two vertices share a component of the
partial forest, the path between them is final, so that distance is a sound lower
bound on the finished tree's stretch. sigma_exact prunes with it against the best
tree so far; enumeration uses no cutoff. The girth bound (shortest cycle length
minus one) gives a global floor that stops the whole search as soon as it is
attained.

A hand-rolled Bareiss elimination provides the matrix-tree count in exact integer
arithmetic as an independent cross-check on the enumerator.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .graphs import (
    DomainError,
    Graph,
    ResourceLimitError,
    SpanningTree,
    ValidationError,
    girth,
    is_connected,
    spanning_tree,
)

DEFAULT_MAX_TREES = 10_000_000


@dataclass(frozen=True)
class ExactResult:
    """Outcome of sigma_exact: optimum value, witness tree, and search statistics."""

    sigma: int
    optimal_tree: SpanningTree
    trees_enumerated: int
    lower_bound_used: int
    pruned: bool


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


class _Stop(Exception):
    """Internal: the girth floor was reached, the search is over."""


class _TreeSearch:
    """Include-first walk over the spanning trees, shared by enumeration and the exact solve.

    The search keeps one forest, as adjacency lists, and one ``excluded`` flag per
    edge. At edge i = (u, v) a BFS from u in the forest gives u's tree distances. If
    it reaches v, edge i would close a cycle and is skipped. Otherwise the include
    branch adds it to the forest, and the exclude branch flags it, but only while a
    DFS from u over the non-excluded edges other than i still reaches v.

    This exclude rule equals the usual one, "the forest plus ``edges[i+1:]`` still
    spans", so the search takes the same branches in the same order. Proof: let N
    be the non-excluded edges, that is the forest, the undecided suffix
    ``edges[i:]`` and the skipped cycle-closing edges. N spans and is connected at
    every node: it is the whole connected graph at the root, an include or a skip
    leaves it as it is, and an exclude is taken only when N minus edge i stays
    connected. A skipped edge joins two vertices that the forest already joined
    when it was skipped, and the forest only grows down a branch, so N minus edge
    i joins the same vertex pairs as the forest plus ``edges[i+1:]``. As N is
    connected, N minus edge i is connected exactly when edge i is not a bridge of
    N, that is when u still reaches v without it. The invariant also means that no
    branch runs past the last edge: there N is the forest plus edges inside its
    components, so the forest already spans and the branch ended in a tree.
    """

    def __init__(self, g: Graph, max_trees: int):
        self.n = g.n
        self.edges = g.edges
        self.max_trees = max_trees
        self.included: list[int] = []
        self.count = 0

    def run(self, on_tree: Callable[[int], float]) -> None:
        """Call ``on_tree(forced)`` on every tree reached, in include-first order.

        ``forced`` is the largest tree distance already forced between the ends
        of a graph edge, and an edge is included only while it forces less than
        the cutoff ``on_tree`` returned last.
        """
        n, edges, included = self.n, self.edges, self.included
        forest: list[list[int]] = [[] for _ in range(n)]
        incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for j, (a, b) in enumerate(edges):
            incident[a].append((j, b))
            incident[b].append((j, a))
        excluded = [False] * len(edges)
        cutoff = math.inf

        def forest_dists(start: int) -> list[int]:
            dist = [-1] * n
            dist[start] = 0
            queue = deque([start])
            while queue:
                a = queue.popleft()
                da = dist[a]
                for b in forest[a]:
                    if dist[b] < 0:
                        dist[b] = da + 1
                        queue.append(b)
            return dist

        def joined(u: int, v: int) -> bool:
            """Do the non-excluded edges still join u to v?"""
            seen = [False] * n
            seen[u] = True
            stack = [u]
            while stack:
                for j, b in incident[stack.pop()]:
                    if not seen[b] and not excluded[j]:
                        if b == v:
                            return True
                        seen[b] = True
                        stack.append(b)
            return False

        def rec(i: int, forced: int) -> None:
            nonlocal cutoff
            if len(included) == n - 1:
                if self.count >= self.max_trees:
                    raise ResourceLimitError(
                        f"spanning-tree cap of {self.max_trees} exceeded", self.count
                    )
                self.count += 1
                cutoff = on_tree(forced)
                return
            u, v = edges[i]
            du = forest_dists(u)
            if du[v] >= 0:
                rec(i + 1, forced)  # would close a cycle: skipped, not flagged as excluded
                return
            # Including edge i merges the components of u and v; every graph edge
            # crossing them gets its final tree distance right now.
            dv = forest_dists(v)
            nf = forced
            for a, b in edges:
                if du[a] >= 0 and dv[b] >= 0:
                    d = du[a] + 1 + dv[b]
                elif du[b] >= 0 and dv[a] >= 0:
                    d = du[b] + 1 + dv[a]
                else:
                    continue
                if d > nf:
                    nf = d
            if nf < cutoff:
                included.append(i)
                forest[u].append(v)
                forest[v].append(u)
                rec(i + 1, nf)
                forest[v].pop()
                forest[u].pop()
                included.pop()
            excluded[i] = True
            if joined(u, v):
                rec(i + 1, forced)
            excluded[i] = False

        rec(0, 0)


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

    def on_tree(forced: int) -> float:
        if visitor is not None:
            visitor(tuple(search.included))
        return math.inf

    search.run(on_tree)
    return search.count


def sigma_exact(
    g: Graph,
    use_pruning: bool = True,
    max_trees: int = DEFAULT_MAX_TREES,
) -> ExactResult:
    """Minimum stretch over all spanning trees, with a witness tree.

    With pruning on, branches whose already-forced fundamental-cycle distance
    cannot beat the incumbent are abandoned, and the search stops outright when
    the girth floor is met. With pruning off, every tree is enumerated (useful as
    an oracle and for exact tree counts). ``max_trees`` caps the finished trees
    the search reaches, not its work: a pruned search may explore many branches
    per tree, so a small cap does not bound the running time.
    """
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
    search = _TreeSearch(g, max_trees)
    best_sigma = math.inf
    best_tree: tuple[int, ...] | None = None

    def on_tree(forced: int) -> float:
        nonlocal best_sigma, best_tree
        if forced < best_sigma:
            best_sigma = forced
            best_tree = tuple(search.included)
            if use_pruning and best_sigma <= floor:
                raise _Stop
        return best_sigma if use_pruning else math.inf

    try:
        search.run(on_tree)
    except _Stop:
        pass
    assert best_tree is not None, "connected graph must have a spanning tree"
    return ExactResult(
        sigma=int(best_sigma),
        optimal_tree=spanning_tree(g, best_tree),
        trees_enumerated=search.count,
        lower_bound_used=floor,
        pruned=use_pruning,
    )
