"""Bipartite instances whose neighbor sets are subpaths of a host tree.

An instance consists of a tree tau on the Y-side vertices and an ordered family
Sigma = (Y_1, ..., Y_m) of Y-subsets, one per X-side vertex, each required to
induce a path in tau. The family must additionally satisfy a laminar condition
relative to every inclusion-maximal member. Such instances always admit a
spanning tree all of whose fundamental cycles have length four (stretch 3),
and this module builds one:

1. pick a root set that contains a tau-leaf and is inclusion-maximal;
2. grow breadth-first "levels": successors of a set Y_i are the remaining sets
   that overlap it, stick out of it, and have an inclusion-maximal union with it;
3. the root's X-vertex becomes the center of a star over all of Y_1; each
   successor's X-vertex becomes a star over its extension plus one overlap
   vertex y-bar chosen at the boundary toward the extension;
4. every set never selected is attached by a single pendant edge at a vertex
   that the partial tree already places within distance two of the whole set.

The "last vertex of the overlap" phrasing used informally for y-bar is
under-determined and can produce stretch-5 trees on valid instances, so the
builder is defensive: it tries every eligible root (and both overlap endpoints
when a successor extends on both sides), verifies that every fundamental cycle
of the candidate tree has length exactly four, and returns the first success.
Vertex numbering of the bipartite graph: x_i is vertex i (0 <= i < m), y_j is
vertex m + j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

from .graphs import (
    Graph,
    ParameterError,
    SpanningTree,
    ValidationError,
    is_connected,
    make_graph,
    spanning_tree_from_pairs,
    tree_distance,
)


def check_laminar(family: Sequence[Iterable[int]]) -> tuple[bool, tuple[int, int] | None]:
    """True iff every pair of sets is nested or disjoint; else the violating pair."""
    sets = [frozenset(s) for s in family]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            inter = sets[i] & sets[j]
            if inter and not (sets[i] <= sets[j] or sets[j] <= sets[i]):
                return False, (i, j)
    return True, None


@dataclass(frozen=True)
class ConvexInstance:
    """A validated instance: host tree, neighbor-set family, bipartite graph.

    ``paths`` holds each Y_i's vertex sequence along its tau-subpath in a fixed
    canonical orientation (smaller endpoint first).
    """

    n_y: int
    tau_edges: tuple[tuple[int, int], ...]
    sigma: tuple[frozenset[int], ...]
    graph: Graph
    paths: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.sigma)

    def x_vertex(self, i: int) -> int:
        return i

    def y_vertex(self, j: int) -> int:
        return self.m + j

    @property
    def tau_adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(self.n_y)}
        for a, b in self.tau_edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def tau_leaves(self) -> list[int]:
        adj = self.tau_adjacency
        return [v for v in range(self.n_y) if len(adj[v]) <= 1]


def _subpath_sequence(n_y: int, tau_adj: Mapping[int, list[int]], members: frozenset[int]) -> tuple[int, ...] | None:
    """Vertex sequence of the path induced by ``members`` in tau, or None."""
    if not members:
        return None
    if len(members) == 1:
        return (next(iter(members)),)
    degrees = {v: sum(1 for w in tau_adj[v] if w in members) for v in members}
    ends = sorted(v for v in members if degrees[v] == 1)
    if len(ends) != 2 or any(d > 2 for d in degrees.values()):
        return None
    seq = [ends[0]]
    prev = -1
    while seq[-1] != ends[1]:
        nxt = [w for w in tau_adj[seq[-1]] if w in members and w != prev]
        if len(nxt) != 1:
            return None
        prev = seq[-1]
        seq.append(nxt[0])
    if len(seq) != len(members):
        return None  # induced subgraph is disconnected
    return tuple(seq)


def validate_instance(
    n_y: int,
    tau_edges: Iterable[Sequence[int]],
    sigma: Sequence[Iterable[int]],
) -> ConvexInstance:
    """Check the subpath condition per set and laminarity per maximal member.

    Raises ValidationError naming the offending set (subpath violations) or the
    maximal set plus the offending pair (laminar violations).
    """
    edges = [(int(a), int(b)) for a, b in tau_edges]
    if n_y < 1:
        raise ParameterError("the host tree needs at least one vertex")
    if len(edges) != n_y - 1:
        raise ValidationError(f"host tree on {n_y} vertices needs {n_y - 1} edges, got {len(edges)}")
    tau = make_graph(n_y, edges)
    seen = [False] * n_y
    stack = [0]
    seen[0] = True
    reached = 1
    while stack:
        v = stack.pop()
        for w in tau.adjacency[v]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                stack.append(w)
    if reached != n_y:
        raise ValidationError("host tau is not connected, so it is not a tree")

    sets = []
    for i, raw in enumerate(sigma):
        s = frozenset(int(v) for v in raw)
        if not s:
            raise ValidationError(f"Y_{i + 1} is empty")
        if any(not (0 <= v < n_y) for v in s):
            raise ValidationError(f"Y_{i + 1} has a vertex outside the host tree")
        sets.append(s)
    if not sets:
        raise ValidationError("the family of neighbor sets is empty")

    tau_adj = {v: sorted(tau.adjacency[v]) for v in range(n_y)}
    paths = []
    for i, s in enumerate(sets):
        seq = _subpath_sequence(n_y, tau_adj, s)
        if seq is None:
            raise ValidationError(f"Y_{i + 1} does not induce a path in the host tree")
        paths.append(seq)

    for i0, y0 in enumerate(sets):
        if any(other is not y0 and y0 < other for other in sets):
            continue  # only inclusion-maximal members anchor the laminar check
        rel = []
        rel_index = []
        for i, s in enumerate(sets):
            if s & y0:
                rel.append(s - y0)
                rel_index.append(i)
        ok, pair = check_laminar(rel)
        if not ok:
            a, b = pair  # type: ignore[misc]
            raise ValidationError(
                f"laminar condition fails at maximal set Y_{i0 + 1}: "
                f"Y_{rel_index[a] + 1} and Y_{rel_index[b] + 1} cross outside it"
            )

    m = len(sets)
    graph_edges = []
    for i, s in enumerate(sets):
        for y in sorted(s):
            graph_edges.append((i, m + y))
    graph = make_graph(m + n_y, graph_edges)
    if not is_connected(graph):
        raise ValidationError(
            "the bipartite graph is disconnected "
            "(the neighbor sets do not cover and link all of the host tree)"
        )
    return ConvexInstance(
        n_y=n_y,
        tau_edges=tuple(sorted(tuple(sorted(e)) for e in edges)),
        sigma=tuple(sets),
        graph=graph,
        paths=tuple(paths),
    )


def root_candidates(instance: ConvexInstance) -> list[int]:
    """Indices of sets that contain a tau-leaf and are inclusion-maximal, ascending."""
    leaves = set(instance.tau_leaves())
    out = []
    for i, s in enumerate(instance.sigma):
        if not (s & leaves):
            continue
        if any(j != i and s < instance.sigma[j] for j in range(instance.m)):
            continue
        out.append(i)
    return out


def select_root(instance: ConvexInstance) -> int:
    """Smallest-index set containing a tau-leaf and inclusion-maximal in the family."""
    candidates = root_candidates(instance)
    if not candidates:
        raise ValidationError("no neighbor set contains a leaf of the host tree and is maximal")
    return candidates[0]


@dataclass(frozen=True)
class LevelStructure:
    """Breadth-first selection of the family: levels, predecessor links, leftovers.

    ``discarded`` maps each unselected set q to a covering pair (i, j) with
    Y_i meeting Y_q and Y_q inside Y_i union Y_j; the degenerate pair (i, i)
    records plain containment Y_q inside Y_i.
    """

    root: int
    levels: tuple[tuple[int, ...], ...]
    predecessor: Mapping[int, int]
    discarded: Mapping[int, tuple[int, int]]

    @property
    def selected(self) -> list[int]:
        return [i for level in self.levels for i in level]


def level_sets(instance: ConvexInstance, root: int) -> LevelStructure:
    """Grow levels from the root until the selected sets cover Y.

    Successors of a selected Y_i are remaining sets that overlap it, stick out
    of it, and whose union with Y_i is inclusion-maximal among Y_i's candidates;
    among candidates with identical unions only the lowest index is admitted.
    The structural guarantees the construction relies on (selected sets pairwise
    non-nested, sibling extensions disjoint, sets two levels apart disjoint) are
    asserted and raise ValidationError when violated.
    """
    sigma = instance.sigma
    m = instance.m
    if not (0 <= root < m):
        raise ParameterError(f"root index {root} out of range")
    y_all = frozenset(range(instance.n_y))
    remaining = set(range(m)) - {root}
    levels: list[tuple[int, ...]] = [(root,)]
    predecessor: dict[int, int] = {}
    covered = set(sigma[root])

    while covered != y_all:
        current = levels[-1]
        next_level: dict[int, int] = {}
        for i in current:
            cands = [
                j
                for j in sorted(remaining)
                if sigma[i] & sigma[j] and sigma[j] - sigma[i]
            ]
            unions = {j: sigma[i] | sigma[j] for j in cands}
            for j in cands:
                uj = unions[j]
                dominated = any(uj < unions[l] for l in cands) or any(
                    l < j and unions[l] == uj for l in cands
                )
                if not dominated and j not in next_level:
                    next_level[j] = i
        if not next_level:
            raise ValidationError(
                "level procedure stalled before covering Y "
                "(the bipartite graph is disconnected or the instance is invalid)"
            )
        for j in sorted(next_level):
            predecessor[j] = next_level[j]
            remaining.discard(j)
            covered |= sigma[j]
        levels.append(tuple(sorted(next_level)))

    selected = [i for level in levels for i in level]
    for a_pos in range(len(selected)):
        for b_pos in range(a_pos + 1, len(selected)):
            a, b = selected[a_pos], selected[b_pos]
            if sigma[a] <= sigma[b] or sigma[b] <= sigma[a]:
                raise ValidationError(
                    f"selected sets Y_{a + 1} and Y_{b + 1} are nested"
                )
    for level in levels[1:]:
        by_pred: dict[int, list[int]] = {}
        for j in level:
            by_pred.setdefault(predecessor[j], []).append(j)
        for i, siblings in by_pred.items():
            for a_pos in range(len(siblings)):
                for b_pos in range(a_pos + 1, len(siblings)):
                    a, b = siblings[a_pos], siblings[b_pos]
                    if (sigma[a] - sigma[i]) & (sigma[b] - sigma[i]):
                        raise ValidationError(
                            f"sibling extensions of Y_{a + 1} and Y_{b + 1} overlap"
                        )
    for k in range(len(levels) - 2):
        for i in levels[k]:
            for j in levels[k + 2]:
                if sigma[i] & sigma[j]:
                    raise ValidationError(
                        f"sets two levels apart intersect: Y_{i + 1} and Y_{j + 1}"
                    )

    successors: dict[int, list[int]] = {}
    for j, i in predecessor.items():
        successors.setdefault(i, []).append(j)
    discarded: dict[int, tuple[int, int]] = {}
    for q in sorted(remaining):
        pair = None
        for level in levels:
            for i in level:
                if sigma[q] <= sigma[i]:
                    pair = (i, i)
                    break
                for j in sorted(successors.get(i, ())):
                    if sigma[i] & sigma[q] and sigma[q] <= (sigma[i] | sigma[j]):
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair:
                break
        if pair is None:
            raise ValidationError(f"no covering pair exists for unselected set Y_{q + 1}")
        discarded[q] = pair
    return LevelStructure(
        root=root,
        levels=tuple(levels),
        predecessor=predecessor,
        discarded=discarded,
    )


def _ybar_options(instance: ConvexInstance, i: int, j: int) -> list[int]:
    """Overlap endpoints of Y_i and Y_j facing an extension segment of Y_j.

    The overlap of two tau-paths is a contiguous segment of Y_j's path; the
    extension Y_j minus Y_i consists of the flanking segment(s). The attachment
    vertex must sit on the overlap boundary toward an extension, otherwise
    paths from the extension back into the overlap grow too long.
    """
    overlap = instance.sigma[i] & instance.sigma[j]
    path_j = instance.paths[j]
    positions = [pos for pos, v in enumerate(path_j) if v in overlap]
    lo, hi = positions[0], positions[-1]
    options = []
    if lo > 0:  # extension before the overlap segment
        options.append(path_j[lo])
    if hi < len(path_j) - 1:  # extension after the overlap segment
        options.append(path_j[hi])
    return options


def _try_build(
    instance: ConvexInstance,
    structure: LevelStructure,
    ybar_choice: Mapping[int, int],
) -> SpanningTree | None:
    """Assemble stars plus pendants for one y-bar assignment; verify or bail."""
    sigma = instance.sigma
    yv = instance.y_vertex
    edges: list[tuple[int, int]] = []
    centers: dict[int, set[int]] = {y: set() for y in range(instance.n_y)}

    def add_star(x_index: int, members: Iterable[int]) -> None:
        for y in sorted(members):
            edges.append((x_index, yv(y)))
            centers[y].add(x_index)

    add_star(structure.root, sigma[structure.root])
    for level in structure.levels[1:]:
        for j in level:
            i = structure.predecessor[j]
            add_star(j, (sigma[j] - sigma[i]) | {ybar_choice[j]})

    for q in sorted(structure.discarded):
        anchor = None
        for y in instance.paths[q]:
            if all(
                other == y or (centers[other] & centers[y])
                for other in sigma[q]
            ):
                anchor = y
                break
        if anchor is None:
            return None
        edges.append((q, yv(anchor)))

    try:
        tree = spanning_tree_from_pairs(instance.graph, edges)
    except ValidationError:
        return None
    for e in tree.cotree_edges:
        if tree_distance(tree, *instance.graph.edges[e]) != 3:
            return None
    return tree


@dataclass(frozen=True)
class ConstructionResult:
    """A verified tree plus the level structure that produced it.

    ``structure`` is None exactly when the bipartite graph was already a tree
    and no level procedure ran.
    """

    tree: SpanningTree
    structure: LevelStructure | None


def construct_details(instance: ConvexInstance) -> ConstructionResult:
    """Build a tree whose fundamental cycles all have length exactly four.

    If the bipartite graph is itself a tree, it is returned as-is (stretch 1,
    a degenerate but valid answer). Otherwise roots are tried in ascending
    index order, with both overlap endpoints tried for successors whose
    extension is two-sided; the first verified tree wins.
    """
    g = instance.graph
    if g.m == g.n - 1:
        return ConstructionResult(spanning_tree_from_pairs(g, list(g.edges)), None)

    failures: list[str] = []
    for root in root_candidates(instance):
        try:
            structure = level_sets(instance, root)
        except ValidationError as exc:
            failures.append(f"root Y_{root + 1}: {exc}")
            continue
        succ_indices = sorted(structure.predecessor)
        option_lists = []
        for j in succ_indices:
            opts = _ybar_options(instance, structure.predecessor[j], j)
            if not opts:
                opts = [instance.paths[j][0]]  # unreachable for real successors
            option_lists.append(opts)
        for combo in product(*option_lists):
            choice = dict(zip(succ_indices, combo))
            tree = _try_build(instance, structure, choice)
            if tree is not None:
                return ConstructionResult(tree, structure)
        failures.append(f"root Y_{root + 1}: no attachment assignment verified")
    detail = "; ".join(failures) if failures else "no eligible root"
    raise ValidationError(f"construction failed for every root candidate ({detail})")


def construct_tree(instance: ConvexInstance) -> SpanningTree:
    """Spanning tree in which every fundamental cycle has length exactly four."""
    return construct_details(instance).tree


# ---------------------------------------------------------------------------
# Instance serialization (used by the CLI)


def instance_to_json(instance: ConvexInstance) -> dict:
    return {
        "n_y": instance.n_y,
        "tau_edges": [[a, b] for a, b in instance.tau_edges],
        "sigma": [sorted(s) for s in instance.sigma],
    }


def instance_from_json(data: Mapping) -> ConvexInstance:
    try:
        tau_edges = [(int(e[0]), int(e[1])) for e in data["tau_edges"]]
        sigma = [list(map(int, s)) for s in data["sigma"]]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValidationError(f"malformed instance JSON: {exc}") from exc
    if "n_y" in data:
        n_y = int(data["n_y"])
    else:
        vertices = {v for e in tau_edges for v in e} | {v for s in sigma for v in s}
        n_y = max(vertices) + 1 if vertices else 1
    return validate_instance(n_y, tau_edges, sigma)
