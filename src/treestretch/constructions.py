"""The family table: one record per named family, and the optimal trees.

Each record in ``FAMILIES`` pairs a family's command-line parsers and its
graph generator with the closed-form minimum stretch and an explicit tree
attaining it; the plane grid families add their embedding, the closed-form
maximum face level and the stretch bound that level certifies. ``make``,
``sigma_formula``, ``optimal_construction``, ``embed_grid``,
``lambda_max_formula``, ``stretch_lower_bound`` and the command line all look
the family up here, so adding a family means one spec dataclass in
``families.py`` and one record below.

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
from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from .convex import construct_tree, instance_to_json
from .families import (
    Chain,
    Complete,
    CompleteBipartite,
    CompleteMultipartite,
    Cycle,
    Diamond,
    FamilySpec,
    GeneralizedConvex,
    Petersen,
    RectGrid,
    Split,
    TriGrid,
    TriRectGrid,
    Wheel,
    chain_instance,
    family_of,
    make,
    random_convex_spec,
    random_split_spec,
)
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
)
from .planar import PlaneGraph, make_plane_graph

Parser = Callable[[str, Sequence[str], int], FamilySpec]


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one named family.

    ``cli`` maps each command-line name of the family to its parser, called
    with that name, the parameter words and the ``--seed``. ``graph`` returns
    the graph and its metadata; ``sigma`` and ``tree`` receive that graph and
    are only called when it is not a tree. ``describe`` gives the spec's
    fields for reports. The plane grids also give ``embed`` (faces labelled
    by lattice position), ``lambda_max`` (closed-form deepest face level),
    ``level_bound`` (the stretch bound a face of that level certifies) and
    ``level_row`` (the printed row of a face label in ``treestretch levels``).
    """

    name: str
    spec: type
    cli: Mapping[str, Parser]
    graph: Callable[[FamilySpec], tuple[Graph, dict]]
    sigma: Callable[[FamilySpec, Graph], int]
    tree: Callable[[FamilySpec, Graph], SpanningTree]
    describe: Callable[[FamilySpec], dict] = asdict
    embed: Callable[[FamilySpec, Graph], PlaneGraph] | None = None
    lambda_max: Callable[[FamilySpec], int] | None = None
    level_bound: Callable[[int], int] | None = None
    level_row: Callable[[tuple], int] | None = None


@dataclass(frozen=True)
class FormulaResult:
    """A family's optimal stretch with a tree and certificate attaining it."""

    spec: FamilySpec
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


def _host(spec: FamilySpec, g: Graph | None) -> Graph:
    """The graph of ``spec``: ``g`` when the caller built it already, else built now."""
    return make(spec).graph if g is None else g


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


def multipartite_tree(spec: CompleteMultipartite, g: Graph | None = None) -> SpanningTree:
    """Optimal tree for a complete multipartite graph with three or more parts.

    Parts may come in any order. The tree is rooted at the first vertex of the
    smallest part (the earliest of equal parts). If that part is a singleton,
    its vertex is adjacent to all others and the star gives stretch 2;
    otherwise a double star over it and the first vertex of the next-smallest
    part gives stretch 3, which is optimal. ``g`` is the graph, if built.
    """
    parts = spec.parts
    if len(parts) < 3:
        raise ParameterError("use the bipartite construction for two parts")
    g = _host(spec, g)
    smallest, next_smallest = sorted(range(len(parts)), key=parts.__getitem__)[:2]
    root = sum(parts[:smallest])
    if parts[smallest] == 1:
        return star_tree(g, root)
    return double_star_tree(g, root, sum(parts[:next_smallest]))


def _multipartite_tree(spec: CompleteMultipartite, g: Graph) -> SpanningTree:
    if len(spec.parts) == 2:
        return double_star_tree(g, 0, spec.parts[0])
    return multipartite_tree(spec, g)


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


def petersen_tree(g: Graph | None = None) -> SpanningTree:
    """An optimal (stretch 4) spanning tree of the Petersen graph ``g``, if built."""
    g = _host(Petersen(), g)
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
    """Optimal tree for a split graph (stretch 2 or 3 per the classification)."""
    cls = classify_split(g, clique, independent)
    if cls.sigma == 2:
        x0 = cls.witness
        pairs = [(x0, v) for v in sorted(clique) if v != x0]
        for y in sorted(independent):
            if g.has_edge(x0, y):
                pairs.append((x0, y))
            else:
                pairs.append((min(g.adjacency[y]), y))
        return spanning_tree_from_pairs(g, pairs)
    x0 = min(clique)
    pairs = [(x0, v) for v in sorted(clique) if v != x0]
    pairs += [(min(g.adjacency[y]), y) for y in sorted(independent)]
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


def _split_sides(spec: Split, g: Graph) -> tuple[range, range]:
    """The clique and the independent side of the split graph ``g``."""
    return range(spec.clique_size), range(spec.clique_size, g.n)


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
# Plane grids. Faces are listed in the documented order with the outer face
# last, and each bounded face is labelled by the lattice position of its
# first vertex: (i, j) cells for the rectangular grid, (x, y, "up"/"down")
# for the triangular grid, (x, y, "lower"/"upper") for the triangulated one.


def _grid_kinds(graph: Graph, coords: Sequence[tuple[int, int]]) -> list[str]:
    kinds = []
    for u, v in graph.edges:
        (a, b), (c, d) = coords[u], coords[v]
        if b == d:
            kinds.append("horizontal")
        elif a == c:
            kinds.append("vertical")
        else:
            kinds.append("slant")
    return kinds


def _edge_id(g: Graph) -> Callable[[int, int], int]:
    return lambda a, b: g.edge_index[(a, b) if a < b else (b, a)]


def _rect_graph(spec: RectGrid) -> tuple[Graph, dict]:
    m, n = spec.m, spec.n
    coords = [(i, j) for i in range(m) for j in range(n)]
    edges = []
    for i in range(m):
        for j in range(n):
            if j + 1 < n:
                edges.append((i * n + j, i * n + j + 1))
            if i + 1 < m:
                edges.append((i * n + j, (i + 1) * n + j))
    g = make_graph(m * n, edges)
    kinds = []
    for u, v in g.edges:
        kinds.append("horizontal" if coords[u][0] == coords[v][0] else "vertical")
    meta = {
        "family": "rect-grid",
        "rows": m,
        "cols": n,
        "coordinates": [list(c) for c in coords],
        "edge_kinds": kinds,
    }
    return g, meta


def _embed_rect(spec: RectGrid, g: Graph) -> PlaneGraph:
    """Cells row-major."""
    m, n = spec.m, spec.n
    eid = _edge_id(g)

    def vid(i: int, j: int) -> int:
        return i * n + j

    faces, labels = [], []
    for i in range(m - 1):
        for j in range(n - 1):
            faces.append((
                eid(vid(i, j), vid(i, j + 1)),
                eid(vid(i, j + 1), vid(i + 1, j + 1)),
                eid(vid(i + 1, j + 1), vid(i + 1, j)),
                eid(vid(i + 1, j), vid(i, j)),
            ))
            labels.append((i, j))
    outer = []
    outer += [eid(vid(0, j), vid(0, j + 1)) for j in range(n - 1)]
    outer += [eid(vid(i, n - 1), vid(i + 1, n - 1)) for i in range(m - 1)]
    outer += [eid(vid(m - 1, j + 1), vid(m - 1, j)) for j in reversed(range(n - 1))]
    outer += [eid(vid(i + 1, 0), vid(i, 0)) for i in reversed(range(m - 1))]
    faces.append(tuple(outer))
    return make_plane_graph(g, faces, len(faces) - 1, "rect-grid", [*labels, "outer"])


def rect_grid_tree(spec: RectGrid, g: Graph | None = None) -> SpanningTree:
    """All vertical edges plus the horizontal row closest to the middle.

    Row (m-1)//2 keeps both escape distances at most floor(m/2), so the worst
    fundamental cycle has length 2*floor(m/2) + 2 and the stretch meets the
    face-level lower bound 2*floor(m/2) + 1. ``g`` is the grid, if built.
    """
    m, n = spec.m, spec.n
    g = _host(spec, g)
    r = (m - 1) // 2
    pairs = []
    for j in range(n):
        pairs += [(i * n + j, (i + 1) * n + j) for i in range(m - 1)]
    pairs += [(r * n + j, r * n + j + 1) for j in range(n - 1)]
    return spanning_tree_from_pairs(g, pairs)


def _tri_index(n: int) -> dict[tuple[int, int], int]:
    """Vertex of each lattice point (x, y), x + y <= n, of the triangular grid."""
    return {c: i for i, c in enumerate((x, y) for x in range(n + 1) for y in range(n + 1 - x))}


def _tri_graph(spec: TriGrid) -> tuple[Graph, dict]:
    n = spec.n
    index = _tri_index(n)
    edges = []
    for (x, y) in index:
        for step in ((x + 1, y), (x, y + 1), (x + 1, y - 1)):
            if step in index:
                edges.append((index[(x, y)], index[step]))
    g = make_graph(len(index), edges)
    coords = list(index)
    meta = {
        "family": "tri-grid",
        "n": n,
        "coordinates": [list(c) for c in coords],
        "edge_kinds": _grid_kinds(g, coords),
    }
    return g, meta


def _embed_tri(spec: TriGrid, g: Graph) -> PlaneGraph:
    """Lattice order (x, y) with the upward triangle at (x, y) before the downward one."""
    n = spec.n
    index = _tri_index(n)
    eid = _edge_id(g)

    def e(a: tuple[int, int], b: tuple[int, int]) -> int:
        return eid(index[a], index[b])

    faces, labels = [], []
    for (x, y) in index:
        if x + y <= n - 1:
            faces.append((
                e((x, y), (x + 1, y)),
                e((x + 1, y), (x, y + 1)),
                e((x, y + 1), (x, y)),
            ))
            labels.append((x, y, "up"))
        if x + y <= n - 2:
            faces.append((
                e((x + 1, y), (x + 1, y + 1)),
                e((x + 1, y + 1), (x, y + 1)),
                e((x, y + 1), (x + 1, y)),
            ))
            labels.append((x, y, "down"))
    outer = []
    outer += [e((x, 0), (x + 1, 0)) for x in range(n)]
    outer += [e((n - t, t), (n - t - 1, t + 1)) for t in range(n)]
    outer += [e((0, y + 1), (0, y)) for y in reversed(range(n))]
    faces.append(tuple(outer))
    return make_plane_graph(g, faces, len(faces) - 1, "tri-grid", [*labels, "outer"])


def _tri_crossing(n: int) -> int:
    """Coordinate c of the corner (c, c) of the first deepest face of T_n.

    In the dual BFS from the outer face, the upward triangle at (x, y) has
    level min(2x, 2y, 2(n - x - y) - 2) + 1 and the downward one
    min(2x, 2y, 2(n - x - y) - 4) + 2. The first deepest face in face order
    sits at x = y = (n - 1) // 3: upward when n = 3k + 1, else downward. Its
    corner on the two pinned lines is (x, y) for an upward face and
    (x + 1, y + 1) for a downward one, which is ((n + 1) // 3, (n + 1) // 3)
    either way.
    """
    return (n + 1) // 3


def tri_grid_tree(spec: TriGrid, g: Graph | None = None) -> SpanningTree:
    """Optimal tree for the triangular grid, routed around a deepest face.

    The deepest face, the first in face order, pins a full horizontal line
    and a full vertical line through its corner (:func:`_tri_crossing`);
    columns below the horizontal line, rows above it, and the two leftover
    corner regions are filled so every escape route to the crossing point
    stays short. The stretch is ceil(2n/3) + 1. ``g`` is the grid, if built.
    """
    n = spec.n
    g = _host(spec, g)
    index = _tri_index(n)
    y_h = x_v = _tri_crossing(n)

    pairs: set[tuple[int, int]] = set()

    def add(a: tuple[int, int], b: tuple[int, int]) -> None:
        u, v = index[a], index[b]
        pairs.add((u, v) if u < v else (v, u))

    for x in range(n - y_h):
        add((x, y_h), (x + 1, y_h))
    for y in range(n - x_v):
        add((x_v, y), (x_v, y + 1))
    for y in range(y_h):
        for x in range(n - y_h + 1):
            add((x, y), (x, y + 1))
    for y in range(y_h + 1, n - x_v + 1):
        for x in range(n - y):
            add((x, y), (x + 1, y))
    for y in range(y_h):
        for x in range(n - y_h, n - y):
            add((x, y), (x + 1, y))
    for x in range(x_v):
        for y in range(n - x_v, n - x):
            add((x, y), (x, y + 1))
    return spanning_tree_from_pairs(g, sorted(pairs))


def _tri_rect_graph(spec: TriRectGrid) -> tuple[Graph, dict]:
    m, n = spec.m, spec.n
    coords = [(x, y) for y in range(m) for x in range(n)]
    edges = []
    for y in range(m):
        for x in range(n):
            if x + 1 < n:
                edges.append((y * n + x, y * n + x + 1))
            if y + 1 < m:
                edges.append((y * n + x, (y + 1) * n + x))
            if x + 1 < n and y - 1 >= 0:
                edges.append((y * n + x, (y - 1) * n + x + 1))
    g = make_graph(m * n, edges)
    meta = {
        "family": "tri-rect-grid",
        "rows": m,
        "cols": n,
        "coordinates": [list(c) for c in coords],
        "edge_kinds": _grid_kinds(g, coords),
    }
    return g, meta


def _embed_tri_rect(spec: TriRectGrid, g: Graph) -> PlaneGraph:
    """Cells row-major, lower-left triangle before upper-right."""
    m, n = spec.m, spec.n
    eid = _edge_id(g)

    def vid(x: int, y: int) -> int:
        return y * n + x

    faces, labels = [], []
    for y in range(m - 1):
        for x in range(n - 1):
            faces.append((
                eid(vid(x, y), vid(x + 1, y)),
                eid(vid(x + 1, y), vid(x, y + 1)),
                eid(vid(x, y + 1), vid(x, y)),
            ))
            faces.append((
                eid(vid(x + 1, y), vid(x + 1, y + 1)),
                eid(vid(x + 1, y + 1), vid(x, y + 1)),
                eid(vid(x, y + 1), vid(x + 1, y)),
            ))
            labels += [(x, y, "lower"), (x, y, "upper")]
    outer = []
    outer += [eid(vid(x, 0), vid(x + 1, 0)) for x in range(n - 1)]
    outer += [eid(vid(n - 1, y), vid(n - 1, y + 1)) for y in range(m - 1)]
    outer += [eid(vid(x + 1, m - 1), vid(x, m - 1)) for x in reversed(range(n - 1))]
    outer += [eid(vid(0, y + 1), vid(0, y)) for y in reversed(range(m - 1))]
    faces.append(tuple(outer))
    return make_plane_graph(g, faces, len(faces) - 1, "tri-rect-grid", [*labels, "outer"])


def tri_rect_grid_tree(spec: TriRectGrid, g: Graph | None = None) -> SpanningTree:
    """Optimal tree for the triangulated rectangular grid (stretch m).

    All vertical edges are kept. For odd m the middle horizontal row links the
    columns; for even m the slant just below the middle does, which balances
    the two escape distances that an odd middle row cannot. ``g`` is the
    grid, if built.
    """
    m, n = spec.m, spec.n
    g = _host(spec, g)

    def vid(x: int, y: int) -> int:
        return y * n + x

    pairs = []
    for x in range(n):
        pairs += [(vid(x, y), vid(x, y + 1)) for y in range(m - 1)]
    if m % 2 == 1:
        mid = (m - 1) // 2
        pairs += [(vid(x, mid), vid(x + 1, mid)) for x in range(n - 1)]
    else:
        half = m // 2
        pairs += [(vid(x, half), vid(x + 1, half - 1)) for x in range(n - 1)]
    return spanning_tree_from_pairs(g, pairs)


# ---------------------------------------------------------------------------
# The table


FAMILIES: tuple[Family, ...] = (
    Family("complete", Complete, {"complete": _ints(1, Complete)}, _complete_graph,
           sigma=lambda s, g: 2, tree=lambda s, g: star_tree(g, 0)),
    Family("cycle", Cycle, {"cycle": _ints(1, Cycle)}, _cycle_graph,
           sigma=lambda s, g: s.n - 1,
           tree=lambda s, g: spanning_tree_from_pairs(g, [(i, i + 1) for i in range(s.n - 1)])),
    Family("wheel", Wheel, {"wheel": _ints(1, Wheel)}, _wheel_graph,
           sigma=lambda s, g: 2, tree=lambda s, g: star_tree(g, 0)),
    Family("diamond", Diamond, {"diamond": _ints(1, Diamond)}, _diamond_graph,
           sigma=lambda s, g: 2, tree=lambda s, g: star_tree(g, 0)),
    Family("complete-bipartite", CompleteBipartite,
           {"complete-bipartite": _ints(2, CompleteBipartite)}, _bipartite_graph,
           sigma=lambda s, g: 3, tree=lambda s, g: double_star_tree(g, 0, s.m)),
    Family("complete-multipartite", CompleteMultipartite,
           {"complete-multipartite": _ints(None, lambda *parts: CompleteMultipartite(parts))},
           _multipartite_graph,
           sigma=lambda s, g: 2 if len(s.parts) > 2 and min(s.parts) == 1 else 3,
           tree=_multipartite_tree),
    Family("petersen", Petersen, {"petersen": _no_words(lambda rng: Petersen())}, _petersen_graph,
           sigma=lambda s, g: 4, tree=lambda s, g: petersen_tree(g)),
    Family("split", Split,
           {"split": _parse_split, "random-split": _no_words(random_split_spec, " (use --seed)")},
           _split_graph,
           sigma=lambda s, g: classify_split(g, *_split_sides(s, g)).sigma,
           tree=lambda s, g: split_tree(g, *_split_sides(s, g)),
           describe=lambda s: {"clique_size": s.clique_size,
                               "y_adjacency": [sorted(y) for y in s.y_adjacency]}),
    Family("chain", Chain, {"chain": _parse_chain}, _chain_graph,
           sigma=lambda s, g: 3, tree=lambda s, g: construct_tree(chain_instance(s))),
    Family("generalized-convex", GeneralizedConvex,
           {"random-convex": _no_words(random_convex_spec, " (use --seed)")}, _convex_graph,
           sigma=lambda s, g: 3, tree=lambda s, g: construct_tree(s.instance),
           describe=lambda s: instance_to_json(s.instance)),
    Family("rect-grid", RectGrid, {"rect-grid": _ints(2, RectGrid)}, _rect_graph,
           sigma=lambda s, g: 2 * (s.m // 2) + 1, tree=rect_grid_tree,
           embed=_embed_rect, lambda_max=lambda s: s.m // 2,
           level_bound=lambda lam: 2 * lam + 1, level_row=itemgetter(0)),
    Family("tri-grid", TriGrid, {"tri-grid": _ints(1, TriGrid)}, _tri_graph,
           sigma=lambda s, g: (2 * s.n + 2) // 3 + 1, tree=tri_grid_tree,
           embed=_embed_tri, lambda_max=lambda s: (2 * s.n + 2) // 3,  # ceil(2n/3)
           level_bound=lambda lam: lam + 1, level_row=itemgetter(1)),
    Family("tri-rect-grid", TriRectGrid, {"tri-rect-grid": _ints(2, TriRectGrid)}, _tri_rect_graph,
           sigma=lambda s, g: s.m, tree=tri_rect_grid_tree,
           embed=_embed_tri_rect, lambda_max=lambda s: s.m - 1,
           level_bound=lambda lam: lam + 1, level_row=itemgetter(1)),
)


def _sigma(fam: Family, spec: FamilySpec, g: Graph) -> int:
    """The record's formula, or the stretch of the only spanning tree of a tree."""
    return min(g.m, 1) if g.m == g.n - 1 else fam.sigma(spec, g)


def sigma_formula(spec: FamilySpec) -> int:
    """Closed-form minimum stretch of a family instance.

    Degenerate instances whose graph is a tree give 1 (or 0 for a single
    vertex), matching the stretch of the only spanning tree.
    """
    return _sigma(family_of(spec), spec, make(spec).graph)


def optimal_construction(spec: FamilySpec) -> FormulaResult:
    """The formula value plus an explicit tree attaining it, verified."""
    g = make(spec).graph
    fam = family_of(spec)
    sigma = _sigma(fam, spec, g)
    degenerate = g.m == g.n - 1
    tree = spanning_tree(g, range(g.m)) if degenerate else fam.tree(spec, g)
    cert = stretch(g, tree)
    if cert.stretch != sigma:
        raise ValidationError(
            f"construction for {spec!r} has stretch {cert.stretch}, formula says {sigma}"
        )
    return FormulaResult(spec=spec, sigma=sigma, tree=tree, certificate=cert, degenerate=degenerate)

