"""Parameter specs of the graph families the library analyzes.

Each spec dataclass validates its parameters. Everything else about a family
(its graph generator with the vertex numbering, closed form, optimal tree and,
for the plane grids, embedding) sits in the family's record in
``constructions.FAMILIES``; ``make`` and ``family_of`` look records up there.
The seeded random helpers at the end feed the tests and the command line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from .convex import ConvexInstance, validate_instance
from .graphs import Graph, ParameterError, ValidationError, make_graph

if TYPE_CHECKING:
    from .constructions import Family


@dataclass(frozen=True)
class Complete:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("complete graph needs n >= 1")


@dataclass(frozen=True)
class Cycle:
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ParameterError("cycle needs n >= 3")


@dataclass(frozen=True)
class Wheel:
    """W_n on n vertices: a hub joined to a cycle on the remaining n - 1."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ParameterError("wheel needs n >= 4")


@dataclass(frozen=True)
class Diamond:
    """D_n on n vertices: an edge joined to n - 2 pairwise nonadjacent vertices."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ParameterError("diamond needs n >= 4")


@dataclass(frozen=True)
class CompleteBipartite:
    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ParameterError("complete bipartite needs both sides nonempty")


@dataclass(frozen=True)
class CompleteMultipartite:
    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if len(self.parts) < 2:
            raise ParameterError("multipartite needs at least two parts")
        if any(p < 1 for p in self.parts):
            raise ParameterError("every part must be nonempty")


@dataclass(frozen=True)
class Petersen:
    pass


@dataclass(frozen=True)
class Split:
    """A clique X plus an independent set Y; each y lists its X-neighbors."""

    clique_size: int
    y_adjacency: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "y_adjacency", tuple(frozenset(s) for s in self.y_adjacency)
        )
        if self.clique_size < 1:
            raise ParameterError("split graph needs a nonempty clique side")
        for i, s in enumerate(self.y_adjacency):
            if not s:
                raise ParameterError(f"y_{i + 1} has an empty neighbor set (graph would be disconnected)")
            if any(not (0 <= x < self.clique_size) for x in s):
                raise ParameterError(f"y_{i + 1} lists a neighbor outside the clique")


@dataclass(frozen=True)
class Chain:
    """Bipartite with nested neighbor sets: x_i is adjacent to the first sizes[i] y's."""

    m: int
    n: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if len(self.sizes) != self.m:
            raise ParameterError("need one neighbor-set size per X-vertex")
        if any(not (1 <= s <= self.n) for s in self.sizes):
            raise ParameterError("neighbor-set sizes must lie in 1..n")
        if any(a > b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ParameterError("neighbor-set sizes must be nondecreasing")
        if self.sizes[-1] != self.n:
            raise ParameterError("largest neighbor set must cover Y (connectivity)")


@dataclass(frozen=True)
class GeneralizedConvex:
    instance: ConvexInstance


@dataclass(frozen=True)
class RectGrid:
    m: int
    n: int

    def __post_init__(self):
        if not (2 <= self.m <= self.n):
            raise ParameterError("rectangular grid needs 2 <= m <= n")


@dataclass(frozen=True)
class TriGrid:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("triangular grid needs n >= 1")


@dataclass(frozen=True)
class TriRectGrid:
    m: int
    n: int

    def __post_init__(self):
        if not (2 <= self.m <= self.n):
            raise ParameterError("triangulated rectangular grid needs 2 <= m <= n")


FamilySpec = (
    Complete
    | Cycle
    | Wheel
    | Diamond
    | CompleteBipartite
    | CompleteMultipartite
    | Petersen
    | Split
    | Chain
    | GeneralizedConvex
    | RectGrid
    | TriGrid
    | TriRectGrid
)


@dataclass(frozen=True)
class FamilyGraph:
    spec: FamilySpec
    graph: Graph
    meta: dict = field(compare=False)


def family_of(spec: FamilySpec | str | None) -> Family | None:
    """The record of a family, found by spec or by name; None when there is none."""
    from .constructions import FAMILIES  # the records use every layer, so the table sits on top

    return next((f for f in FAMILIES if isinstance(spec, f.spec) or spec == f.name), None)


def make(spec: FamilySpec) -> FamilyGraph:
    """Generate the canonical graph and metadata for a family spec."""
    fam = family_of(spec)
    if fam is None:
        raise ParameterError(f"unknown family spec: {spec!r}")
    return FamilyGraph(spec, *fam.graph(spec))


def make_split(clique_size: int, y_adjacency: Sequence[Iterable[int]]) -> FamilyGraph:
    """Split graph from explicit Y-neighbor sets; X first, Y after."""
    return make(Split(clique_size, tuple(frozenset(s) for s in y_adjacency)))


def make_generalized_convex(
    n_y: int,
    tau_edges: Iterable[Sequence[int]],
    sigma: Sequence[Iterable[int]],
) -> ConvexInstance:
    """Validate a host-tree instance and build its bipartite graph."""
    return validate_instance(n_y, tau_edges, sigma)


def chain_instance(spec: Chain) -> ConvexInstance:
    """The chain graph as a host-tree instance: tau is a path, sets are prefixes."""
    tau_edges = [(j, j + 1) for j in range(spec.n - 1)]
    sigma = [list(range(s)) for s in spec.sizes]
    return validate_instance(spec.n, tau_edges, sigma)


# ---------------------------------------------------------------------------
# Seeded random helpers (for property and acceptance tests only)


def random_split_spec(rng: random.Random, max_x: int = 4, max_y: int = 3) -> Split:
    """Random split graph that contains a cycle (so it is not a tree)."""
    while True:
        k = rng.randint(2, max_x)
        ny = rng.randint(0, max_y)
        adjacency = tuple(
            frozenset(rng.sample(range(k), rng.randint(1, k))) for _ in range(ny)
        )
        spec = Split(k, adjacency)
        cyclic = k >= 3 or any(len(s) >= 2 for s in adjacency)
        if cyclic:
            return spec


def _tau_path(n_y: int, tau_edges: Sequence[tuple[int, int]], a: int, b: int) -> list[int]:
    adj: dict[int, list[int]] = {v: [] for v in range(n_y)}
    for u, v in tau_edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = {a: None}
    stack = [a]
    while stack:
        v = stack.pop()
        if v == b:
            break
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                stack.append(w)
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def random_convex_spec(
    rng: random.Random,
    max_x: int = 5,
    max_y: int = 5,
    require_cycle: bool = False,
) -> GeneralizedConvex:
    """Random valid host-tree instance (rejection sampling over random subpaths)."""
    while True:
        n_y = rng.randint(1, max_y)
        tau_edges = [(rng.randrange(v), v) for v in range(1, n_y)]
        m = rng.randint(1, max_x)
        sigma = []
        for _ in range(m):
            a = rng.randrange(n_y)
            b = rng.randrange(n_y)
            sigma.append(_tau_path(n_y, tau_edges, a, b))
        try:
            inst = validate_instance(n_y, tau_edges, sigma)
        except ValidationError:
            continue
        if require_cycle and inst.graph.m <= inst.graph.n - 1:
            continue
        return GeneralizedConvex(inst)


_BLOCK_LIBRARY: list[tuple[str, list[tuple[int, int]], int]] = [
    ("triangle", [(0, 1), (1, 2), (0, 2)], 3),
    ("c4", [(0, 1), (1, 2), (2, 3), (0, 3)], 4),
    ("c5", [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 5),
    ("diamond4", [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)], 8),
    ("k4", [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 16),
]


def random_glued_blocks(
    rng: random.Random,
    min_blocks: int = 2,
    max_blocks: int = 4,
    tree_count_cap: int = 10_000,
) -> Graph:
    """Glue 2-connected blocks at random cut vertices into one connected graph.

    The product of the blocks' spanning-tree counts (= the glued graph's count)
    is kept under ``tree_count_cap`` so exhaustive solving stays cheap.
    """
    while True:
        b = rng.randint(min_blocks, max_blocks)
        picks = [rng.choice(_BLOCK_LIBRARY) for _ in range(b)]
        product = 1
        for _, _, count in picks:
            product *= count
        if product <= tree_count_cap:
            break
    edges: list[tuple[int, int]] = []
    n = 0
    for _, block_edges, _ in picks:
        block_n = 1 + max(v for e in block_edges for v in e)
        if n == 0:
            mapping = list(range(block_n))
            n = block_n
        else:
            glue = rng.randrange(n)
            mapping = [glue] + list(range(n, n + block_n - 1))
            n += block_n - 1
        edges += [(mapping[u], mapping[v]) for u, v in block_edges]
    return make_graph(n, edges)
