"""Answers computed apart from the package, and checkers for its outputs.

Each ``verify_*`` function takes one operation's expected values and the
output the program gave, and raises ``CheckError`` naming the first
disagreement.
"""

from __future__ import annotations

from collections import deque


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's own answer."""


# ---------------------------------------------------------------------------
# Closed forms from the paper


def sigma_rect(m: int, n: int) -> int:
    return 2 * (min(m, n) // 2) + 1


def sigma_tri(n: int) -> int:
    return -(-2 * n // 3) + 1


def sigma_tri_rect(m: int, n: int) -> int:
    return min(m, n)


def sigma_multipartite(parts) -> int:
    """Two parts: K_{a,b} has 3 (1 if it is a star); three or more: 2 with a
    singleton part, else 3."""
    if len(parts) == 2 and min(parts) == 1:
        return 1
    return 2 if len(parts) >= 3 and min(parts) == 1 else 3


def sigma_split(n: int, edges, clique, independent) -> int:
    """2 when some clique vertex sees every independent vertex of degree at
    least two, else 3 (the graph must not be a tree)."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    needy = [y for y in independent if len(adj[y]) >= 2]
    return 2 if any(all(y in adj[x] for y in needy) for x in clique) else 3


def tree_count_complete(n: int) -> int:
    return n ** (n - 2)


def tree_count_bipartite(a: int, b: int) -> int:
    return a ** (b - 1) * b ** (a - 1)


PETERSEN_TREES = 2000
PETERSEN_SIGMA = 4
CONVEX_SIGMA = 3


# ---------------------------------------------------------------------------
# Trees


def tree_distances(n: int, edges, tree_pairs) -> list[int]:
    """Check that ``tree_pairs`` is a spanning tree of (n, edges) and return
    the tree distance between the endpoints of every edge, by BFS from vertex
    0 and walks up to the common ancestor."""
    edge_set = {(u, v) if u < v else (v, u) for u, v in edges}
    pairs = [(u, v) if u < v else (v, u) for u, v in tree_pairs]
    if len(set(pairs)) != len(pairs):
        raise CheckError("tree repeats an edge")
    for p in pairs:
        if p not in edge_set:
            raise CheckError(f"tree pair {p} is not an edge of the graph")
    if len(pairs) != n - 1:
        raise CheckError(f"tree has {len(pairs)} edges, a spanning tree has {n - 1}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    depth = [-1] * n
    depth[0] = 0
    queue = deque([0])
    while queue:
        a = queue.popleft()
        for b in adj[a]:
            if depth[b] < 0:
                depth[b] = depth[a] + 1
                parent[b] = a
                queue.append(b)
    if min(depth) < 0:
        raise CheckError("tree does not reach every vertex")
    out = []
    for u, v in edges:
        d = 0
        while depth[u] > depth[v]:
            u, d = parent[u], d + 1
        while depth[v] > depth[u]:
            v, d = parent[v], d + 1
        while u != v:
            u, v, d = parent[u], parent[v], d + 2
        out.append(d)
    return out


def verify_tree(n: int, edges, tree_pairs, sigma: int) -> None:
    """A spanning tree whose stretch is exactly ``sigma``."""
    got = max(tree_distances(n, edges, tree_pairs), default=0)
    if got != sigma:
        raise CheckError(f"tree has stretch {got}, reported sigma is {sigma}")


def expect(got, want, what: str) -> None:
    if got != want:
        raise CheckError(f"{what}: got {got}, expected {want}")


# ---------------------------------------------------------------------------
# Operation outputs


def verify_solve(n: int, edges, sigma: int, report: dict) -> None:
    """A `treestretch solve` report."""
    expect(report["sigma"], sigma, "solve sigma")
    expect((report["n"], report["m"]), (n, len(edges)), "solve (n, m)")
    verify_tree(n, edges, report["optimal_tree"], sigma)


def verify_construct(n: int, edges, want: dict, report: dict) -> None:
    """A `treestretch construct` report; ``want`` holds sigma and the two
    lower bounds."""
    expect(report["sigma_formula"], want["sigma"], "sigma_formula")
    expect(report["sigma_measured"], want["sigma"], "sigma_measured")
    expect(report["lower_bound_girth"], want["girth_lb"], "lower_bound_girth")
    expect(report["lower_bound_level"], want["level_lb"], "lower_bound_level")
    verify_tree(n, edges, report["tree"], want["sigma"])


def verify_convex(n: int, edges, built_pairs, exact_sigma: int, exact_pairs) -> None:
    """construct_tree's tree closes only 4-cycles; sigma_exact proves 3."""
    dists = tree_distances(n, edges, built_pairs)
    long = [e for e, d in zip(edges, dists) if d not in (1, 3)]
    if long:
        raise CheckError(f"edge {long[0]} closes a fundamental cycle longer than 4")
    expect(exact_sigma, CONVEX_SIGMA, "convex sigma_exact")
    verify_tree(n, edges, exact_pairs, CONVEX_SIGMA)


def verify_split(n: int, edges, clique, independent, cls_sigma: int, exact_sigma: int, exact_pairs) -> None:
    want = sigma_split(n, edges, clique, independent)
    expect(cls_sigma, want, "classify_split sigma")
    expect(exact_sigma, want, "split sigma_exact")
    verify_tree(n, edges, exact_pairs, want)


def verify_count(n: int, edges, sigma: int, trees: int, exact_sigma: int, enumerated: int, kirchhoff: int, exact_pairs) -> None:
    expect(enumerated, trees, "trees enumerated")
    expect(kirchhoff, trees, "Kirchhoff tree count")
    expect(exact_sigma, sigma, "exhaustive sigma")
    verify_tree(n, edges, exact_pairs, sigma)
