"""Exact minimum-stretch oracle via spanning-tree enumeration.

The enumerator walks the edge list in canonical index order deciding include vs
exclude, keeping a union-find forest with rollback. The include branch is explored
first, so trees are produced in a fixed lexicographic order and the first optimum
found is deterministic. Excluding an edge is only followed when the remaining edges
can still connect the current forest, so dead branches are cut early.

sigma_exact runs the same search and also tracks, along each branch, the largest
tree distance already forced between endpoints of a graph edge: once two vertices
share a component of the partial forest, the path between them is final, so that
distance is a sound lower bound on the finished tree's stretch and can prune
against the best tree so far.
The girth bound (shortest cycle length minus one) gives a global floor that stops
the whole search as soon as it is attained.

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

    Union-find uses union by size without path compression so that unions can be
    rolled back in O(1) when backtracking.
    """

    def __init__(self, g: Graph, max_trees: int):
        self.n = g.n
        self.m = g.m
        self.edges = g.edges
        self.max_trees = max_trees
        self.parent = list(range(g.n))
        self.size = [1] * g.n
        self.history: list[tuple[int, int]] = []
        self.included: list[int] = []
        self.count = 0

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, ru: int, rv: int) -> None:
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.size[ru] += self.size[rv]
        self.history.append((ru, rv))

    def undo(self) -> None:
        ru, rv = self.history.pop()
        self.parent[rv] = rv
        self.size[ru] -= self.size[rv]

    def can_connect(self, start: int) -> bool:
        """Can the current forest still be completed using edges[start:]?"""
        comps = self.n - len(self.included)
        if comps == 1:
            return True
        tmp: dict[int, int] = {}

        def tfind(x: int) -> int:
            r = self.find(x)
            while tmp.get(r, r) != r:
                r = tmp[r]
            return r

        for j in range(start, self.m):
            u, v = self.edges[j]
            ru, rv = tfind(u), tfind(v)
            if ru != rv:
                tmp[rv] = ru
                comps -= 1
                if comps == 1:
                    return True
        return False

    def run(self, on_tree: Callable[[int], float], distances: bool) -> None:
        """Call ``on_tree(forced)`` on every tree reached, in include-first order.

        With ``distances``, ``forced`` is the largest tree distance already
        forced between the ends of a graph edge, and an edge is included only
        while it forces less than the cutoff ``on_tree`` returned last. Plain
        enumeration skips that step: ``forced`` stays 0.
        """
        n, m, edges, included = self.n, self.m, self.edges, self.included
        find, union, undo, can_connect = self.find, self.union, self.undo, self.can_connect
        forest_adj: list[list[int]] = [[] for _ in range(n)]
        cutoff = math.inf

        def forest_dists(start: int) -> list[int]:
            dist = [-1] * n
            dist[start] = 0
            queue = deque([start])
            while queue:
                a = queue.popleft()
                da = dist[a]
                for b in forest_adj[a]:
                    if dist[b] < 0:
                        dist[b] = da + 1
                        queue.append(b)
            return dist

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
            if i == m:
                return
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                rec(i + 1, forced)  # would close a cycle; exclusion is forced and harmless
                return
            nf = forced
            if distances:
                # Including edge i merges the components of u and v; every graph edge
                # crossing them gets its final tree distance right now.
                du = forest_dists(u)
                dv = forest_dists(v)
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
                union(ru, rv)
                included.append(i)
                if distances:
                    forest_adj[u].append(v)
                    forest_adj[v].append(u)
                rec(i + 1, nf)
                if distances:
                    forest_adj[v].pop()
                    forest_adj[u].pop()
                included.pop()
                undo()
            if can_connect(i + 1):
                rec(i + 1, forced)

        rec(0, 0)


def enumerate_spanning_trees(
    g: Graph,
    visitor: Callable[[tuple[int, ...]], None] | None = None,
    max_trees: int = DEFAULT_MAX_TREES,
) -> int:
    """Visit every spanning tree exactly once (as a sorted tuple of edge indices).

    Returns the number of trees. Raises ResourceLimitError past ``max_trees``,
    reporting the partial count.
    """
    if not is_connected(g):
        raise ValidationError("cannot enumerate spanning trees of a disconnected graph")
    search = _TreeSearch(g, max_trees)

    def on_tree(forced: int) -> float:
        if visitor is not None:
            visitor(tuple(search.included))
        return math.inf

    search.run(on_tree, distances=False)
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
    an oracle and for exact tree counts).
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
        search.run(on_tree, distances=True)
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
