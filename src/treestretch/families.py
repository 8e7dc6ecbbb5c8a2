"""The graph families: one spec and one record per family, and the optimal trees.

A family is a spec dataclass, which validates its parameters, and a record in
``FAMILIES``, which pairs the family's command-line parsers and its graph
generator with the closed-form minimum stretch and an explicit tree attaining
it. A plane grid gives its cells in place of a generator: its lattice points
in vertex order and its faces as vertex cycles. ``make`` builds the grid's
plane graph once from those faces and returns it as ``FamilyGraph.plane``,
with the graph read from it; the record adds the stretch bound that a face
level certifies, which ``stretch_lower_bound`` applies to that plane. A grid's
optimal tree is a rule on its lattice: it keeps an edge exactly when the rule
accepts the edge's kind (horizontal, vertical or slant) and the lattice points
of its ends, so only the cells functions know a grid's vertex numbering.
The dense families (complete, wheel, diamond, complete bipartite, complete
multipartite, chain) share one tree rule read off the graph's degrees: a star
at a vertex adjacent to all others, else a double star over an edge whose
ends see every vertex. Every spec with parameters refuses a graph of more
than ``MAX_EDGES`` edges, counted in closed form, before building it.
``make``, ``sigma_formula``, ``optimal_construction``, ``embed_grid``,
``stretch_lower_bound`` and the command line all look the family up in
``FAMILIES`` by its spec, so adding a family means one spec dataclass and one
record in this module. The seeded random helpers feed the tests and the
command line.

Vertex numbering of the generated graphs:

- join-style families (wheel, diamond): special vertices first;
- bipartite/multipartite: parts in the given order, consecutive indices;
- split and host-tree instances: X-side first, then Y-side;
- rectangular grid (m rows, n columns): row-major, vertex (i, j) -> i*n + j;
- triangular grid T_n: lattice points (x, y) with x + y <= n, lexicographic;
- triangulated rectangular grid (m rows, n columns): vertex (x, y) -> y*n + x.

Slant edges of the triangular families are anti-diagonal unit steps: they join
(x, y) and (x', y') with |x - x'| + |y - y'| = 2 and x + y = x' + y'.

Degenerate inputs (families whose graph is already a tree, such as complete
bipartite with a side of size one) are reported with ``degenerate=True`` and
stretch 1 (0 for a single vertex), since the only spanning tree is the graph
itself; the records' formulas and trees are not consulted for them.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, Sequence

from .convex import ConvexInstance, construct_tree, instance_to_json, validate_instance
from .graphs import (
    DomainError,
    Graph,
    ParameterError,
    SpanningTree,
    StretchCertificate,
    ValidationError,
    make_graph,
    spanning_tree,
    spanning_tree_from_pairs,
    stretch,
    tree_path,
)
from .planar import PlaneGraph, face_levels, make_plane_graph

# ---------------------------------------------------------------------------
# Parameter specs; each validates its parameters and the size of its graph

# The most edges a family's graph may have. Every spec with parameters counts
# its graph's edges in closed form and refuses a larger graph before any of it
# is built.
MAX_EDGES = 1_000_000


def _check_edges(family: str, count: int) -> None:
    if count > MAX_EDGES:
        raise ParameterError(f"{family} would have {count} edges, above the limit of {MAX_EDGES}")


@dataclass(frozen=True)
class Complete:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("complete graph needs n >= 1")
        _check_edges("complete graph", self.n * (self.n - 1) // 2)


@dataclass(frozen=True)
class Cycle:
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ParameterError("cycle needs n >= 3")
        _check_edges("cycle", self.n)


@dataclass(frozen=True)
class Wheel:
    """W_n on n vertices: a hub joined to a cycle on the remaining n - 1."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ParameterError("wheel needs n >= 4")
        _check_edges("wheel", 2 * (self.n - 1))


@dataclass(frozen=True)
class Diamond:
    """D_n on n vertices: an edge joined to n - 2 pairwise nonadjacent vertices."""

    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ParameterError("diamond needs n >= 4")
        _check_edges("diamond", 2 * self.n - 3)


@dataclass(frozen=True)
class CompleteBipartite:
    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ParameterError("complete bipartite needs both sides nonempty")
        _check_edges("complete bipartite graph", self.m * self.n)


@dataclass(frozen=True)
class CompleteMultipartite:
    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if len(self.parts) < 2:
            raise ParameterError("multipartite needs at least two parts")
        if any(p < 1 for p in self.parts):
            raise ParameterError("every part must be nonempty")
        total = sum(self.parts)
        _check_edges("multipartite graph", (total * total - sum(p * p for p in self.parts)) // 2)


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
        k = self.clique_size
        _check_edges("split graph", k * (k - 1) // 2 + sum(map(len, self.y_adjacency)))


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
        _check_edges("chain graph", sum(self.sizes))


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
        _check_edges("rectangular grid", 2 * self.m * self.n - self.m - self.n)


@dataclass(frozen=True)
class TriGrid:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("triangular grid needs n >= 1")
        _check_edges("triangular grid", 3 * self.n * (self.n + 1) // 2)


@dataclass(frozen=True)
class TriRectGrid:
    m: int
    n: int

    def __post_init__(self):
        if not (2 <= self.m <= self.n):
            raise ParameterError("triangulated rectangular grid needs 2 <= m <= n")
        _check_edges("triangulated rectangular grid", 3 * self.m * self.n - 2 * (self.m + self.n) + 1)


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
    """A family's graph and metadata; ``plane`` is a grid's embedding, else None."""

    spec: FamilySpec
    graph: Graph
    meta: dict = field(compare=False)
    plane: PlaneGraph | None = field(default=None, compare=False)


Parser = Callable[[str, Sequence[str], int], FamilySpec]


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one named family.

    ``cli`` maps each command-line name of the family to its parser, called
    with that name, the parameter words and the ``--seed``. ``graph`` returns
    the graph and its metadata; ``sigma`` and ``tree`` receive the
    ``FamilyGraph`` that ``make`` built (spec, graph and metadata) and are
    only called when its graph is not a tree. ``describe`` gives the spec's
    fields for reports. A plane grid gives ``cells`` (its lattice points and
    its faces as vertex cycles; ``make`` builds its plane graph from these
    faces once, and its graph is that plane's) in place of ``graph``, and
    ``row_axis`` (the coordinate of a point that names its row) and
    ``level_bound`` (the stretch bound the deepest face level certifies,
    which ``stretch_lower_bound`` applies to the plane ``make`` built).
    """

    name: str
    spec: type
    cli: Mapping[str, Parser]
    sigma: Callable[[FamilyGraph], int]
    tree: Callable[[FamilyGraph], SpanningTree]
    graph: Callable[[FamilySpec], tuple[Graph, dict]] | None = None
    describe: Callable[[FamilySpec], dict] = asdict
    cells: Callable[[FamilySpec], GridCells] | None = None
    row_axis: int = 0
    level_bound: Callable[[int], int] | None = None


@dataclass(frozen=True)
class FormulaResult:
    """A family's optimal stretch with a tree and certificate attaining it."""

    family_graph: FamilyGraph
    sigma: int
    tree: SpanningTree
    certificate: StretchCertificate
    degenerate: bool


# ---------------------------------------------------------------------------
# Command-line parsers


def _ints(count: int | None, build: Callable[..., FamilySpec]) -> Parser:
    """Parser for ``count`` integer words (at least one if None) passed to ``build``."""

    def parse(name: str, words: Sequence[str], seed: int) -> FamilySpec:
        try:
            ints = [int(w) for w in words]
        except ValueError:
            raise ParameterError(f"family {name!r} takes integer parameters") from None
        if count is not None and len(ints) != count:
            raise ParameterError(f"family {name!r} takes {count} parameter(s)")
        if count is None and not ints:
            raise ParameterError(f"family {name!r} needs at least one parameter")
        return build(*ints)

    return parse


def _no_words(build: Callable[[random.Random], FamilySpec], hint: str = "") -> Parser:
    """Parser for a family without parameter words; ``build`` gets the seeded rng."""

    def parse(name: str, words: Sequence[str], seed: int) -> FamilySpec:
        if words:
            raise ParameterError(f"{name} takes no parameters{hint}")
        return build(random.Random(seed))

    return parse


def _parse_split(name: str, words: Sequence[str], seed: int) -> Split:
    if not words:
        raise ParameterError("split needs a clique size and Y neighbor lists")
    try:
        k = int(words[0])
        adjacency = tuple(frozenset(int(x) for x in w.split(",")) for w in words[1:])
    except ValueError as exc:
        raise ParameterError(f"bad split parameters: {exc}") from exc
    return Split(k, adjacency)


def _parse_chain(name: str, words: Sequence[str], seed: int) -> Chain:
    vals = _ints(None, lambda *v: v)(name, words, seed)
    if len(vals) < 3:
        raise ParameterError("chain takes m, n, then m neighbor-set sizes")
    return Chain(vals[0], vals[1], tuple(vals[2:]))


# ---------------------------------------------------------------------------
# Trees shared by several families


def star_tree(g: Graph, center: int) -> SpanningTree:
    """Spanning star; the center must be adjacent to every other vertex."""
    pairs = []
    for v in range(g.n):
        if v == center:
            continue
        if not g.has_edge(center, v):
            raise ValidationError(f"vertex {v} is not adjacent to the center {center}")
        pairs.append((center, v))
    return spanning_tree_from_pairs(g, pairs)


def double_star_tree(g: Graph, x: int, y: int) -> SpanningTree:
    """Two adjacent centers; every other vertex attaches to x if possible, else y."""
    if not g.has_edge(x, y):
        raise ValidationError(f"centers {x} and {y} are not adjacent")
    pairs = [(x, y)]
    for v in range(g.n):
        if v in (x, y):
            continue
        if g.has_edge(v, x):
            pairs.append((x, v))
        elif g.has_edge(v, y):
            pairs.append((y, v))
        else:
            raise ValidationError(f"vertex {v} is adjacent to neither center")
    return spanning_tree_from_pairs(g, pairs)


def _hub_tree(built: FamilyGraph) -> SpanningTree:
    """A star or double star read off the degrees of a dense family's graph.

    Let x be the first vertex of largest degree. If x is adjacent to every
    other vertex, the tree is the star at x: a non-tree edge uv has the tree
    path u-x-v, so the stretch is 2. Otherwise the tree is the double star
    over x and y, x's first neighbour of largest degree. When every vertex is
    adjacent to x or y, a non-tree edge uv has a tree path through at most u's
    centre and v's centre, so the stretch is at most 3; ``double_star_tree``
    refuses any other pair. Complete graphs, wheels and diamonds have a vertex
    adjacent to all others. In a complete multipartite graph x is the first
    vertex of the earliest smallest part, a singleton part's vertex sees all
    others, and every edge sees every vertex, as its ends lie in different
    parts. In a chain graph the pair is the first X-vertex adjacent to all of
    Y and y_1, which is adjacent to all of X.
    """
    g = built.graph
    x = max(range(g.n), key=g.degree)
    if g.degree(x) == g.n - 1:
        return star_tree(g, x)
    return double_star_tree(g, x, max(g.adjacency[x], key=g.degree))


# ---------------------------------------------------------------------------
# Complete graphs, cycles, wheels, diamonds


def _complete_graph(spec: Complete) -> tuple[Graph, dict]:
    n = spec.n
    g = make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    return g, {"family": "complete", "n": n}


def _cycle_graph(spec: Cycle) -> tuple[Graph, dict]:
    n = spec.n
    g = make_graph(n, [(i, (i + 1) % n) for i in range(n)])
    return g, {"family": "cycle", "n": n}


def _wheel_graph(spec: Wheel) -> tuple[Graph, dict]:
    n = spec.n
    rim = list(range(1, n))
    edges = [(0, v) for v in rim]
    edges += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return make_graph(n, edges), {"family": "wheel", "n": n, "hub": 0}


def _diamond_graph(spec: Diamond) -> tuple[Graph, dict]:
    n = spec.n
    edges = [(0, 1)]
    edges += [(a, v) for v in range(2, n) for a in (0, 1)]
    g = make_graph(n, edges)
    return g, {"family": "diamond", "n": n, "clique": [0, 1], "independent": list(range(2, n))}


# ---------------------------------------------------------------------------
# Complete bipartite and multipartite graphs


def _multipartite_graph(spec: CompleteMultipartite) -> tuple[Graph, dict]:
    parts = spec.parts
    bounds = [0]
    for p in parts:
        bounds.append(bounds[-1] + p)
    groups = [list(range(bounds[i], bounds[i + 1])) for i in range(len(parts))]
    edges = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            edges += [(u, v) for u in groups[i] for v in groups[j]]
    return make_graph(bounds[-1], edges), {"family": "multipartite", "parts": groups}


def _bipartite_graph(spec: CompleteBipartite) -> tuple[Graph, dict]:
    g, meta = _multipartite_graph(CompleteMultipartite((spec.m, spec.n)))
    return g, {"family": "bipartite", "parts": meta["parts"]}


# ---------------------------------------------------------------------------
# Petersen graph


# Found once by exhaustive search over all 2000 spanning trees (the solver
# returns this tree deterministically); no spanning tree does better than 4.
_PETERSEN_TREE_PAIRS = (
    (0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (6, 8), (6, 9),
)


def _petersen_graph(spec: Petersen) -> tuple[Graph, dict]:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    g = make_graph(10, edges)
    return g, {"family": "petersen", "outer": list(range(5)), "inner": list(range(5, 10))}


def petersen_tree(g: Graph) -> SpanningTree:
    """An optimal (stretch 4) spanning tree of the Petersen graph ``g``."""
    tree = spanning_tree_from_pairs(g, _PETERSEN_TREE_PAIRS)
    assert stretch(g, tree).stretch == 4
    return tree


# ---------------------------------------------------------------------------
# Split graphs


@dataclass(frozen=True)
class SplitClassification:
    """Stretch class of a split graph, with evidence.

    ``sigma`` is 2 when some clique vertex ``witness`` sees every Y-vertex of
    degree at least two; otherwise 3, and ``refutations`` names for each
    clique vertex an independent vertex that is non-adjacent yet non-pendant.
    """

    sigma: int
    witness: int | None
    refutations: Mapping[int, int]


def _check_split_partition(g: Graph, clique: Sequence[int], independent: Sequence[int]) -> None:
    cs, ys = list(clique), list(independent)
    if sorted(cs + ys) != list(range(g.n)):
        raise ValidationError("clique and independent sets must partition the vertices")
    for a_pos in range(len(cs)):
        for b_pos in range(a_pos + 1, len(cs)):
            if not g.has_edge(cs[a_pos], cs[b_pos]):
                raise ValidationError(f"clique vertices {cs[a_pos]} and {cs[b_pos]} are not adjacent")
    for a_pos in range(len(ys)):
        for b_pos in range(a_pos + 1, len(ys)):
            if g.has_edge(ys[a_pos], ys[b_pos]):
                raise ValidationError(f"independent vertices {ys[a_pos]} and {ys[b_pos]} are adjacent")
    for y in ys:
        if g.degree(y) == 0:
            raise ValidationError(f"vertex {y} has no neighbor, the graph is disconnected")


def classify_split(g: Graph, clique: Sequence[int], independent: Sequence[int]) -> SplitClassification:
    """Decide whether a split graph has minimum stretch 2 or 3.

    The minimum is 2 exactly when some clique vertex x0 is adjacent to every
    independent vertex of degree at least two; every independent vertex
    missed by x0 is then a pendant and hangs off its unique neighbor without
    creating long cycles. Trees are outside the dichotomy and are refused.
    """
    _check_split_partition(g, clique, independent)
    if g.m == g.n - 1:
        raise DomainError("the graph is a tree (stretch 1); the 2-or-3 dichotomy does not apply")
    refutations: dict[int, int] = {}
    witness = None
    for x0 in sorted(clique):
        bad = None
        for y in sorted(independent):
            if not g.has_edge(x0, y) and g.degree(y) >= 2:
                bad = y
                break
        if bad is None:
            witness = x0
            break
        refutations[x0] = bad
    if witness is not None:
        return SplitClassification(sigma=2, witness=witness, refutations={})
    return SplitClassification(sigma=3, witness=None, refutations=refutations)


def split_tree(g: Graph, clique: Sequence[int], independent: Sequence[int]) -> SpanningTree:
    """Optimal tree for a split graph (stretch 2 or 3 per the classification).

    The centre x0 is the witness, or the smallest clique vertex when sigma is
    3; it joins every other clique vertex. Each independent vertex y joins x0
    if adjacent, else its smallest neighbour, which is in the clique as all of
    y's neighbours are.
    """
    x0 = classify_split(g, clique, independent).witness
    if x0 is None:
        x0 = min(clique)
    pairs = [(x0, v) for v in clique if v != x0]
    pairs += [(x0 if g.has_edge(x0, y) else g.adjacency[y][0], y) for y in independent]
    return spanning_tree_from_pairs(g, pairs)


def _split_graph(spec: Split) -> tuple[Graph, dict]:
    k = spec.clique_size
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    for j, s in enumerate(spec.y_adjacency):
        edges += [(x, k + j) for x in sorted(s)]
    meta = {
        "family": "split",
        "clique": list(range(k)),
        "independent": list(range(k, k + len(spec.y_adjacency))),
        "y_adjacency": [sorted(s) for s in spec.y_adjacency],
    }
    return make_graph(k + len(spec.y_adjacency), edges), meta


def _split_sides(built: FamilyGraph) -> tuple[range, range]:
    """The clique and the independent side of a split graph."""
    k = built.spec.clique_size
    return range(k), range(k, built.graph.n)


# ---------------------------------------------------------------------------
# Chain graphs and generalized convex instances


def _chain_graph(spec: Chain) -> tuple[Graph, dict]:
    m, n = spec.m, spec.n
    edges = []
    for i, s in enumerate(spec.sizes):
        edges += [(i, m + j) for j in range(s)]
    g = make_graph(m + n, edges)
    meta = {
        "family": "chain",
        "x": list(range(m)),
        "y": list(range(m, m + n)),
        "sizes": list(spec.sizes),
    }
    return g, meta


def _convex_graph(spec: GeneralizedConvex) -> tuple[Graph, dict]:
    inst = spec.instance
    meta = {
        "family": "generalized-convex",
        "x": list(range(inst.m)),
        "y": list(range(inst.m, inst.m + inst.n_y)),
        "tau_edges": [list(e) for e in inst.tau_edges],
        "sigma": [sorted(s) for s in inst.sigma],
    }
    return inst.graph, meta


# ---------------------------------------------------------------------------
# Plane grids. Each grid is described once, by its cells: the lattice point of
# each vertex and the faces as vertex cycles, listed in the documented order
# with the outer face last. ``_grid_graph`` builds its plane graph from those
# faces once, and the graph is read from that plane. A grid's optimal tree is
# a rule over its lattice points, which ``_lattice_tree`` applies edge by edge,
# so only the cells functions know a grid's vertex numbering.

Point = tuple[int, int]
EdgeRule = Callable[[str, Sequence[int], Sequence[int]], bool]


@dataclass(frozen=True)
class GridCells:
    """A plane grid: the lattice point of each vertex and the faces as vertex cycles.

    ``points`` holds the lattice point of each vertex, in vertex order;
    ``faces`` each face as a vertex cycle, the bounded faces in face order and
    the outer face last; ``size`` the grid's dimensions as its graph metadata
    reports them.
    """

    size: dict
    points: list[Point]
    faces: list[tuple[int, ...]]


def _outline(corners: Sequence[Point], vertex: Callable[[Point], int]) -> tuple[int, ...]:
    """The vertices along straight lattice lines from each corner to the next, cyclically."""
    walk = []
    for (a, b), (c, d) in zip(corners, [*corners[1:], corners[0]]):
        da, db = (c > a) - (c < a), (d > b) - (d < b)
        walk += [vertex((a + k * da, b + k * db)) for k in range(max(abs(c - a), abs(d - b)))]
    return tuple(walk)


def _grid_graph(fam: Family, spec: FamilySpec) -> FamilyGraph:
    """The grid's plane graph, built from its faces, with its graph and metadata.

    An edge is horizontal when its ends share the coordinate on the record's
    row axis, vertical when they share the other one, and slant otherwise.
    """
    grid = fam.cells(spec)
    plane = make_plane_graph(len(grid.points), grid.faces, len(grid.faces) - 1)
    g = plane.graph
    row, col, points = fam.row_axis, 1 - fam.row_axis, grid.points
    kinds = [
        "horizontal" if points[u][row] == points[v][row]
        else "vertical" if points[u][col] == points[v][col]
        else "slant"
        for u, v in g.edges
    ]
    meta = {
        "family": fam.name,
        **grid.size,
        "coordinates": [list(p) for p in points],
        "edge_kinds": kinds,
    }
    return FamilyGraph(spec, g, meta, plane)


def _lattice_tree(built: FamilyGraph, keep: EdgeRule) -> SpanningTree:
    """The spanning tree of the grid edges that ``keep`` accepts.

    ``keep`` gets each edge's kind and the lattice points of its two ends, in
    no particular order.
    """
    g, points, kinds = built.graph, built.meta["coordinates"], built.meta["edge_kinds"]
    return spanning_tree(
        g, [e for e, (u, v) in enumerate(g.edges) if keep(kinds[e], points[u], points[v])]
    )


def _columns_and_row(row: int, axis: int) -> EdgeRule:
    """Every vertical edge, plus the horizontal edges of row ``row`` on ``axis``.

    For the rectangular grid with m rows the row is r = (m-1)//2, the one
    closest to the middle. A non-tree edge is then a horizontal edge in a row
    i != r, and its tree path runs along its two columns to row r and across:
    2|i - r| + 1 edges. As |i - r| <= m - 1 - r = floor(m/2), the stretch is
    2*floor(m/2) + 1, which meets the face-level lower bound. The
    triangulated rectangular grid with odd m reads the same rule on its own
    row axis (see :func:`_tri_rect_rule`).
    """

    def keep(kind: str, p: Sequence[int], q: Sequence[int]) -> bool:
        return kind == "vertical" or kind == "horizontal" and p[axis] == row

    return keep


def _tri_rect_rule(m: int) -> EdgeRule:
    """The optimal tree of the triangulated rectangular grid with m rows (stretch m).

    All vertical edges are kept, so a tree path between two columns runs
    along them to the row that links them. For odd m the middle row
    r = (m-1)//2 does: a horizontal edge in row y has a tree path of
    2|y - r| + 1 <= m edges, a slant edge one of at most m - 1. For even m,
    with h = m/2, the slant edges between rows h - 1 and h do, which
    balances the two escape distances that an odd middle row cannot: a
    horizontal edge in row y has a tree path of |y - h| + 1 + |y - h + 1|
    <= m edges, a slant edge whose upper end is in row y one of
    2|y - h| + 1 <= m - 1. Either way the stretch meets the face-level lower
    bound lambda_max + 1 = m.
    """
    if m % 2:
        return _columns_and_row((m - 1) // 2, axis=1)

    def keep(kind: str, p: Sequence[int], q: Sequence[int]) -> bool:
        return kind == "vertical" or kind == "slant" and p[1] + q[1] == m - 1

    return keep


def _tri_rule(n: int) -> EdgeRule:
    """The optimal tree of the triangular grid T_n, routed around a deepest face.

    In the dual BFS from the outer face, the upward triangle at (x, y) has
    level min(2x, 2y, 2(n - x - y) - 2) + 1 and the downward one
    min(2x, 2y, 2(n - x - y) - 4) + 2. The first deepest face in face order
    sits at x = y = (n - 1) // 3: upward when n = 3k + 1, else downward. Its
    corner on the two pinned lines is (x, y) for an upward face and
    (x + 1, y + 1) for a downward one, which is (c, c) with c = (n + 1) // 3
    either way.

    The rule pins the full horizontal line y = c and the full vertical line
    x = c through that corner. Below row c it keeps the columns x <= n - c,
    and from row c up to row n - c every row; the two leftover corner
    regions are filled, the lower right (x >= n - c) by rows and the upper
    left (y >= n - c) by columns, so every escape route to the crossing point
    stays short. No slant edge is kept. The stretch is ceil(2n/3) + 1, the
    face-level bound lambda_max + 1.
    """
    c = (n + 1) // 3

    def keep(kind: str, p: Sequence[int], q: Sequence[int]) -> bool:
        if kind == "horizontal":  # row y, left end at x
            y = p[1]
            return c <= y <= n - c or y < c and min(p[0], q[0]) >= n - c
        if kind == "vertical":  # column x, lower end at y
            x, y = p[0], min(p[1], q[1])
            return x == c or y < c and x <= n - c or x < c and y >= n - c
        return False

    return keep


def _rect_cells(spec: RectGrid) -> GridCells:
    """Points (row i, column j) row-major; cells row-major."""
    m, n = spec.m, spec.n
    faces = []
    for i in range(m - 1):
        for j in range(n - 1):
            v = i * n + j  # (i, j); v + 1 is (i, j + 1) and v + n is (i + 1, j)
            faces.append((v, v + 1, v + n + 1, v + n))
    points = [(i, j) for i in range(m) for j in range(n)]
    outer = _outline(((0, 0), (0, n - 1), (m - 1, n - 1), (m - 1, 0)), lambda p: p[0] * n + p[1])
    return GridCells({"rows": m, "cols": n}, points, [*faces, outer])


def _tri_index(n: int) -> dict[tuple[int, int], int]:
    """Vertex of each lattice point (x, y), x + y <= n, of the triangular grid."""
    return {c: i for i, c in enumerate((x, y) for x in range(n + 1) for y in range(n + 1 - x))}


def _tri_cells(spec: TriGrid) -> GridCells:
    """Points in lattice order (x, y), the upward triangle at (x, y) before the downward one."""
    n = spec.n
    index = _tri_index(n)
    faces = []
    for (x, y), v in index.items():
        if x + y <= n - 1:
            right, above = index[(x + 1, y)], index[(x, y + 1)]
            faces.append((v, right, above))
            if x + y <= n - 2:
                faces.append((right, index[(x + 1, y + 1)], above))
    outer = _outline(((0, 0), (n, 0), (0, n)), index.__getitem__)
    return GridCells({"n": n}, list(index), [*faces, outer])


def _tri_rect_cells(spec: TriRectGrid) -> GridCells:
    """Points (x, y) row-major; cells row-major, lower-left triangle before upper-right."""
    m, n = spec.m, spec.n
    faces = []
    for y in range(m - 1):
        for x in range(n - 1):
            v = y * n + x  # (x, y); v + 1 is (x + 1, y) and v + n is (x, y + 1)
            faces.append((v, v + 1, v + n))
            faces.append((v + 1, v + n + 1, v + n))
    points = [(x, y) for y in range(m) for x in range(n)]
    outer = _outline(((0, 0), (n - 1, 0), (n - 1, m - 1), (0, m - 1)), lambda p: p[1] * n + p[0])
    return GridCells({"rows": m, "cols": n}, points, [*faces, outer])


# ---------------------------------------------------------------------------
# Seeded random helpers, for the tests and the random-* command-line families


def random_split_spec(rng: random.Random) -> Split:
    """Random split graph on a 2-4 clique and 0-3 independent vertices, with a cycle."""
    while True:
        k = rng.randint(2, 4)
        ny = rng.randint(0, 3)
        adjacency = tuple(
            frozenset(rng.sample(range(k), rng.randint(1, k))) for _ in range(ny)
        )
        spec = Split(k, adjacency)
        cyclic = k >= 3 or any(len(s) >= 2 for s in adjacency)
        if cyclic:
            return spec


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
        tau = spanning_tree_from_pairs(make_graph(n_y, tau_edges), tau_edges)
        m = rng.randint(1, max_x)
        sigma = [tree_path(tau, rng.randrange(n_y), rng.randrange(n_y)) for _ in range(m)]
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


def random_glued_blocks(rng: random.Random) -> Graph:
    """Glue 2-4 2-connected blocks at random cut vertices into one connected graph.

    The product of the blocks' spanning-tree counts (= the glued graph's count)
    is kept at most 10,000 so exhaustive solving stays cheap.
    """
    while True:
        b = rng.randint(2, 4)
        picks = [rng.choice(_BLOCK_LIBRARY) for _ in range(b)]
        product = 1
        for _, _, count in picks:
            product *= count
        if product <= 10_000:
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


# ---------------------------------------------------------------------------
# The table


FAMILIES: tuple[Family, ...] = (
    Family("complete", Complete, {"complete": _ints(1, Complete)}, graph=_complete_graph,
           sigma=lambda b: 2, tree=_hub_tree),
    Family("cycle", Cycle, {"cycle": _ints(1, Cycle)}, graph=_cycle_graph,
           sigma=lambda b: b.spec.n - 1,
           tree=lambda b: spanning_tree_from_pairs(b.graph, [(i, i + 1) for i in range(b.spec.n - 1)])),
    Family("wheel", Wheel, {"wheel": _ints(1, Wheel)}, graph=_wheel_graph,
           sigma=lambda b: 2, tree=_hub_tree),
    Family("diamond", Diamond, {"diamond": _ints(1, Diamond)}, graph=_diamond_graph,
           sigma=lambda b: 2, tree=_hub_tree),
    Family("complete-bipartite", CompleteBipartite,
           {"complete-bipartite": _ints(2, CompleteBipartite)}, graph=_bipartite_graph,
           sigma=lambda b: 3, tree=_hub_tree),
    Family("complete-multipartite", CompleteMultipartite,
           {"complete-multipartite": _ints(None, lambda *parts: CompleteMultipartite(parts))},
           graph=_multipartite_graph,
           sigma=lambda b: 2 if len(b.spec.parts) > 2 and min(b.spec.parts) == 1 else 3,
           tree=_hub_tree),
    Family("petersen", Petersen, {"petersen": _no_words(lambda rng: Petersen())},
           graph=_petersen_graph, sigma=lambda b: 4, tree=lambda b: petersen_tree(b.graph)),
    Family("split", Split,
           {"split": _parse_split, "random-split": _no_words(random_split_spec, " (use --seed)")},
           graph=_split_graph,
           sigma=lambda b: classify_split(b.graph, *_split_sides(b)).sigma,
           tree=lambda b: split_tree(b.graph, *_split_sides(b)),
           describe=lambda s: {"clique_size": s.clique_size,
                               "y_adjacency": [sorted(y) for y in s.y_adjacency]}),
    Family("chain", Chain, {"chain": _parse_chain}, graph=_chain_graph,
           sigma=lambda b: 3, tree=_hub_tree),
    Family("generalized-convex", GeneralizedConvex,
           {"random-convex": _no_words(random_convex_spec, " (use --seed)")}, graph=_convex_graph,
           sigma=lambda b: 3, tree=lambda b: construct_tree(b.spec.instance),
           describe=lambda s: instance_to_json(s.instance)),
    Family("rect-grid", RectGrid, {"rect-grid": _ints(2, RectGrid)}, cells=_rect_cells, row_axis=0,
           sigma=lambda b: 2 * (b.spec.m // 2) + 1,
           tree=lambda b: _lattice_tree(b, _columns_and_row((b.spec.m - 1) // 2, axis=0)),
           level_bound=lambda lam: 2 * lam + 1),
    Family("tri-grid", TriGrid, {"tri-grid": _ints(1, TriGrid)}, cells=_tri_cells, row_axis=1,
           sigma=lambda b: (2 * b.spec.n + 2) // 3 + 1,
           tree=lambda b: _lattice_tree(b, _tri_rule(b.spec.n)),
           level_bound=lambda lam: lam + 1),
    Family("tri-rect-grid", TriRectGrid, {"tri-rect-grid": _ints(2, TriRectGrid)},
           cells=_tri_rect_cells, row_axis=1, sigma=lambda b: b.spec.m,
           tree=lambda b: _lattice_tree(b, _tri_rect_rule(b.spec.m)),
           level_bound=lambda lam: lam + 1),
)


def _sigma(fam: Family, built: FamilyGraph) -> int:
    """The record's formula, or the stretch of the only spanning tree of a tree."""
    g = built.graph
    return min(g.m, 1) if g.m == g.n - 1 else fam.sigma(built)


def sigma_formula(spec: FamilySpec) -> int:
    """Closed-form minimum stretch of a family instance.

    Degenerate instances whose graph is a tree give 1 (or 0 for a single
    vertex), matching the stretch of the only spanning tree.
    """
    return _sigma(family_of(spec), make(spec))


def optimal_construction(spec: FamilySpec) -> FormulaResult:
    """The formula value plus an explicit tree attaining it, verified."""
    built = make(spec)
    g = built.graph
    fam = family_of(spec)
    sigma = _sigma(fam, built)
    degenerate = g.m == g.n - 1
    tree = spanning_tree(g, range(g.m)) if degenerate else fam.tree(built)
    cert = stretch(g, tree)
    if cert.stretch != sigma:
        raise ValidationError(
            f"construction for {spec!r} has stretch {cert.stretch}, formula says {sigma}"
        )
    return FormulaResult(
        family_graph=built, sigma=sigma, tree=tree, certificate=cert, degenerate=degenerate
    )


def family_of(spec: FamilySpec) -> Family | None:
    """The record of a family spec; None when there is none."""
    return next((f for f in FAMILIES if isinstance(spec, f.spec)), None)


def make(spec: FamilySpec) -> FamilyGraph:
    """Generate the canonical graph and metadata for a family spec."""
    fam = family_of(spec)
    if fam is None:
        raise ParameterError(f"unknown family spec: {spec!r}")
    if fam.cells is not None:
        return _grid_graph(fam, spec)
    return FamilyGraph(spec, *fam.graph(spec))


# ---------------------------------------------------------------------------
# Face levels of the plane grids


def embed_grid(spec: FamilySpec) -> PlaneGraph:
    """Plane embedding of a grid family, outer face listed last.

    The faces and their order come from the cells of the family record.
    """
    fam = family_of(spec)
    if fam is None or fam.cells is None:
        raise ParameterError(f"no analytic embedding for {spec!r}")
    return make(spec).plane


def stretch_lower_bound(built: FamilyGraph) -> int:
    """Stretch lower bound certified by the deepest face level of a grid.

    Every spanning tree of the rectangular grid has stretch at least
    2*lambda_max + 1; for the triangulated families the bound is
    lambda_max + 1. Other families are refused: no bound is established for
    them.
    """
    fam = family_of(built.spec)
    if fam.level_bound is None:
        raise DomainError(f"no face-level stretch bound is established for {built.spec!r}")
    return fam.level_bound(max(face_levels(built.plane)))
