"""Seeded inputs for the benchmark, built without the package under test.

Every graph here is made from the definitions in the paper, with the vertex
numbering the package documents, so a change to the package's generators
cannot change a workload. All randomness comes from a ``random.Random``
passed in by the caller.
"""

from __future__ import annotations

import random
from collections import deque

Edge = tuple[int, int]


def canonical(edges) -> list[Edge]:
    return sorted((u, v) if u < v else (v, u) for u, v in edges)


# ---------------------------------------------------------------------------
# Families


def rect_grid(m: int, n: int) -> tuple[int, list[Edge]]:
    """m rows by n columns, vertex (i, j) -> i*n + j."""
    edges = []
    for i in range(m):
        for j in range(n):
            if j + 1 < n:
                edges.append((i * n + j, i * n + j + 1))
            if i + 1 < m:
                edges.append((i * n + j, (i + 1) * n + j))
    return m * n, canonical(edges)


def tri_grid(n: int) -> tuple[int, list[Edge]]:
    """Lattice points (x, y) with x + y <= n in lexicographic order; unit steps
    along x, along y, and the anti-diagonal (x, y) - (x + 1, y - 1)."""
    coords = [(x, y) for x in range(n + 1) for y in range(n + 1 - x)]
    index = {c: i for i, c in enumerate(coords)}
    edges = []
    for x, y in coords:
        for c in ((x + 1, y), (x, y + 1), (x + 1, y - 1)):
            if c in index:
                edges.append((index[(x, y)], index[c]))
    return len(coords), canonical(edges)


def tri_rect_grid(m: int, n: int) -> tuple[int, list[Edge]]:
    """m rows by n columns, vertex (x, y) -> y*n + x, each cell cut by the
    anti-diagonal (x, y) - (x + 1, y - 1)."""
    edges = []
    for y in range(m):
        for x in range(n):
            v = y * n + x
            if x + 1 < n:
                edges.append((v, v + 1))
            if y + 1 < m:
                edges.append((v, v + n))
            if x + 1 < n and y >= 1:
                edges.append((v, v + 1 - n))
    return m * n, canonical(edges)


def complete(n: int) -> tuple[int, list[Edge]]:
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


def multipartite(parts) -> tuple[int, list[Edge]]:
    """Parts in the given order on consecutive vertex indices."""
    starts = [sum(parts[:i]) for i in range(len(parts))]
    edges = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            edges += [
                (u, v)
                for u in range(starts[a], starts[a] + parts[a])
                for v in range(starts[b], starts[b] + parts[b])
            ]
    return sum(parts), canonical(edges)


def petersen() -> tuple[int, list[Edge]]:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return 10, canonical(edges)


def chain(m: int, n: int, sizes) -> tuple[int, list[Edge]]:
    """x_i = i is adjacent to the first sizes[i] of y_j = m + j."""
    return m + n, canonical((i, m + j) for i, s in enumerate(sizes) for j in range(s))


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def relabel(n: int, edges, perm) -> list[Edge]:
    return canonical((perm[u], perm[v]) for u, v in edges)


def shuffled(n: int, rng: random.Random) -> list[int]:
    """A uniform relabelling: perm[old] = new."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def bfs_relabelling(n: int, edges, rng: random.Random) -> list[int]:
    """perm[old] = new, numbering vertices in BFS order from a seeded start
    with seeded neighbour order."""
    adj = adjacency(n, edges)
    start = rng.randrange(n)
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        a = queue.popleft()
        nbrs = sorted(adj[a])
        rng.shuffle(nbrs)
        for b in nbrs:
            if b not in seen:
                seen.add(b)
                order.append(b)
                queue.append(b)
    perm = [0] * n
    for new, old in enumerate(order):
        perm[old] = new
    return perm


# ---------------------------------------------------------------------------
# Host-tree (generalized convex) instances


def _tau_path(adj, a: int, b: int) -> list[int]:
    parent = {a: None}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                queue.append(w)
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def convex_is_valid(n_y: int, sigma) -> bool:
    """The laminar condition at every inclusion-maximal set: the parts of the
    sets meeting it that stick out of it are pairwise nested or disjoint. The
    subpath condition holds by construction of the sets."""
    sets = [frozenset(s) for s in sigma]
    for top in sets:
        if any(top < other for other in sets):
            continue
        outside = [s - top for s in sets if s & top]
        for i, a in enumerate(outside):
            for b in outside[i + 1:]:
                if a & b and not (a <= b or b <= a):
                    return False
    return True


def bipartite(n_y: int, sigma) -> tuple[int, list[Edge]]:
    """x_i = i is adjacent to y_j = m + j for every j in sigma[i]."""
    m = len(sigma)
    return m + n_y, canonical((i, m + y) for i, s in enumerate(sigma) for y in s)


def connected(n: int, edges) -> bool:
    adj = adjacency(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


# Bounds on the convex instances: at most MAX_SETS sets on a host tree of at
# most MAX_Y vertices, with 1 to MAX_CYCLES independent cycles (edges -
# vertices + 1) in the bipartite graph. Above six cycles the exact search on
# these instances often runs for tens of milliseconds to a second instead of
# stopping at the girth floor, and how many such instances a seed draws would
# set the workload's speed.
MAX_SETS = 8
MAX_Y = 8
MAX_CYCLES = 6


def random_convex(rng: random.Random):
    """A valid instance (n_y, tau_edges, sigma) within the bounds above."""
    while True:
        n_y = rng.randint(2, MAX_Y)
        tau = [(rng.randrange(v), v) for v in range(1, n_y)]
        adj = adjacency(n_y, tau)
        m = rng.randint(2, MAX_SETS)
        sigma = [sorted(_tau_path(adj, rng.randrange(n_y), rng.randrange(n_y))) for _ in range(m)]
        if not convex_is_valid(n_y, sigma):
            continue
        n, edges = bipartite(n_y, sigma)
        if 1 <= len(edges) - n + 1 <= MAX_CYCLES and connected(n, edges):
            return n_y, tau, sigma


# Seeded convex instances are drawn from a fixed pool: instance i is
# random_convex(random.Random(i)) for i < CONVEX_POOL. construct_tree raises
# ValidationError on the pool instances in POOL_FAULTS (found by running the
# package over the pool once). They are never drawn, so that the share of
# failed operations does not depend on the seed; instead they run in every
# round, like KNOWN_FAULTS. Rows: (pool index, n_y, tau, sigma).
CONVEX_POOL = 4000
POOL_FAULTS = [
    (1021, 6, [[0, 1], [0, 2], [1, 3], [3, 4], [4, 5]],
     [[3, 4, 5], [0, 2], [0, 1, 3], [0, 1, 2], [3, 4, 5]]),
    (1586, 4, [[0, 1], [0, 2], [1, 3]],
     [[1, 3], [0, 1], [1, 3], [0, 2], [0, 2]]),
    (2106, 6, [[0, 1], [0, 2], [1, 3], [3, 4], [4, 5]],
     [[4], [0, 2], [0, 1, 3], [3, 4, 5], [1, 3, 4, 5], [0, 2]]),
    (2635, 8, [[0, 1], [0, 2], [0, 3], [2, 4], [3, 5], [1, 6], [2, 7]],
     [[0, 1], [0, 1], [2, 4], [1, 6], [0, 1], [0, 2, 3, 5, 7], [0, 2, 3, 5, 7]]),
    (3798, 8, [[0, 1], [1, 2], [2, 3], [0, 4], [0, 5], [1, 6], [5, 7]],
     [[1, 2, 3], [0, 1], [1, 2, 3, 6], [0, 4, 5], [7], [0, 4, 5, 7]]),
    (3898, 6, [[0, 1], [1, 2], [1, 3], [0, 4], [0, 5]],
     [[0, 4, 5], [2], [3], [0, 5], [1, 3], [1, 2, 3], [0, 1]]),
]


def convex_pool_draw(rng: random.Random, count: int) -> list:
    excluded = {row[0] for row in POOL_FAULTS}
    picks = rng.sample([i for i in range(CONVEX_POOL) if i not in excluded], count)
    return [random_convex(random.Random(i)) for i in picks]


# random_convex_spec(random.Random(seed), max_x=k, max_y=k) of the package at
# the listed (k, seed), stored as data: construct_tree raises ValidationError
# on each although sigma_exact proves stretch 3. Rows: (k, seed, n_y, tau, sigma).
KNOWN_FAULTS = [
    (8, 278, 5, [[0, 1], [0, 3], [1, 2], [3, 4]],
     [[1, 2], [3, 4], [1, 2], [2], [0, 3], [0, 3, 4], [3, 4], [0, 1]]),
    (8, 351, 6, [[0, 1], [1, 2], [1, 3], [2, 4], [4, 5]],
     [[1, 3], [3], [1, 2], [2, 4, 5], [5], [2, 4, 5], [2, 4], [0, 1, 3]]),
    (12, 40, 8, [[0, 1], [0, 2], [0, 6], [1, 3], [1, 7], [3, 4], [4, 5]],
     [[0, 1, 3], [1, 7], [1, 3, 4], [3], [7], [1, 7], [1, 3, 4, 5, 7], [3, 4],
      [0, 1], [0, 2, 6]]),
    (12, 145, 7, [[0, 1], [0, 3], [1, 2], [2, 4], [3, 5], [4, 6]],
     [[0, 1, 2], [2, 4, 6], [0, 1], [2, 4], [3, 5], [0, 1, 2, 4], [2],
      [0, 1, 2, 3], [0, 1, 3, 5]]),
    (12, 161, 4, [[0, 1], [0, 3], [1, 2]],
     [[1, 2], [1, 2], [0, 1], [0, 3], [0, 3], [0, 3]]),
    (12, 273, 4, [[0, 1], [1, 2], [2, 3]],
     [[1, 2], [0, 1], [0, 1], [3], [1, 2], [2, 3], [1], [1, 2], [1, 2], [2, 3]]),
    (16, 133, 7, [[0, 1], [0, 2], [1, 3], [1, 4], [2, 5], [2, 6]],
     [[0, 1, 3], [6], [0, 1, 2, 4, 5], [0, 1, 2, 3, 6], [0, 2, 5], [0, 1, 2, 5],
      [0, 1, 4], [0], [0, 1, 2, 3], [0, 2, 6]]),
]


# ---------------------------------------------------------------------------
# Split graphs


def random_split(rng: random.Random, clique: int, n_ind: int):
    """Clique and independent sides shuffled over 0..n-1; the graph has a cycle.

    Returns (n, edges, clique_vertices, independent_vertices).
    """
    while True:
        nbrs = [rng.sample(range(clique), rng.randint(1, clique)) for _ in range(n_ind)]
        if clique >= 3 or any(len(s) >= 2 for s in nbrs):
            break
    n = clique + n_ind
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b]) for a in range(clique) for b in range(a + 1, clique)]
    edges += [(perm[x], perm[clique + j]) for j, s in enumerate(nbrs) for x in s]
    return n, canonical(edges), sorted(perm[:clique]), sorted(perm[clique:])
